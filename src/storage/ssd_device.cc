#include "storage/ssd_device.h"

#include <cassert>
#include <cstring>

namespace odbgc {

namespace {

SsdCostParams Sanitize(SsdCostParams cost) {
  if (cost.pages_per_block == 0) cost.pages_per_block = 64;
  if (cost.spare_blocks < 2) cost.spare_blocks = 2;
  return cost;
}

}  // namespace

SsdDevice::SsdDevice(size_t page_size, MetricsRegistry* registry,
                     const SsdCostParams& cost)
    : PageDevice(page_size, registry),
      cost_(Sanitize(cost)),
      erases_(RegisterDeviceCounter("ssd.erases")),
      gc_copies_(RegisterDeviceCounter("ssd.gc_page_copies")) {
  assert(page_size > 0);
}

PageExtent SsdDevice::AllocatePages(size_t count) {
  PageExtent extent{static_cast<PageId>(pages_.size()), count};
  for (size_t i = 0; i < count; ++i) {
    auto page = std::make_unique<std::byte[]>(page_size());
    std::memset(page.get(), 0, page_size());
    pages_.push_back(std::move(page));
    map_.push_back(kUnmapped);
  }
  GrowFlash();
  return extent;
}

void SsdDevice::GrowFlash() {
  const size_t ppb = cost_.pages_per_block;
  const size_t needed_blocks =
      (pages_.size() + ppb - 1) / ppb + cost_.spare_blocks;
  while (block_state_.size() < needed_blocks) {
    const uint32_t block = static_cast<uint32_t>(block_state_.size());
    block_state_.push_back(kErased);
    block_valid_.push_back(0);
    owner_.resize(owner_.size() + ppb, kUnmapped);
    erased_fifo_.push_back(block);
  }
}

uint64_t SsdDevice::WritableSlots() const {
  uint64_t slots = erased_fifo_.size() * cost_.pages_per_block;
  if (open_block_ != kNoBlock) {
    slots += cost_.pages_per_block - open_offset_;
  }
  return slots;
}

void SsdDevice::Invalidate(PageId logical) {
  const uint64_t flash = map_[logical];
  if (flash == kUnmapped) return;
  map_[logical] = kUnmapped;
  owner_[flash] = kUnmapped;
  --block_valid_[flash / cost_.pages_per_block];
}

void SsdDevice::Program(PageId logical) {
  const size_t ppb = cost_.pages_per_block;
  if (open_block_ == kNoBlock || open_offset_ == ppb) {
    if (open_block_ != kNoBlock) block_state_[open_block_] = kClosed;
    assert(!erased_fifo_.empty());
    open_block_ = erased_fifo_.front();
    erased_fifo_.pop_front();
    block_state_[open_block_] = kOpen;
    open_offset_ = 0;
  }
  const uint64_t flash =
      static_cast<uint64_t>(open_block_) * ppb + open_offset_++;
  owner_[flash] = logical;
  map_[logical] = flash;
  ++block_valid_[open_block_];
}

bool SsdDevice::CollectOneBlock() {
  const size_t ppb = cost_.pages_per_block;
  uint32_t victim = kNoBlock;
  uint32_t victim_valid = 0;
  for (uint32_t b = 0; b < block_state_.size(); ++b) {
    if (block_state_[b] != kClosed) continue;
    if (victim == kNoBlock || block_valid_[b] < victim_valid) {
      victim = b;
      victim_valid = block_valid_[b];
    }
  }
  // No closed block, or a fully valid victim: collecting frees nothing.
  if (victim == kNoBlock || victim_valid == ppb) return false;

  for (uint64_t f = static_cast<uint64_t>(victim) * ppb;
       f < static_cast<uint64_t>(victim + 1) * ppb; ++f) {
    const uint64_t logical = owner_[f];
    if (logical == kUnmapped) continue;
    Invalidate(static_cast<PageId>(logical));
    Program(static_cast<PageId>(logical));
    metrics()->Count(gc_copies_);
  }
  block_state_[victim] = kErased;
  erased_fifo_.push_back(victim);
  metrics()->Count(erases_);
  return true;
}

void SsdDevice::EnsureSpace() {
  // Keep a block's worth of headroom so a GC cycle's copies always fit:
  // when this triggers, WritableSlots() >= pages_per_block (the previous
  // EnsureSpace left >= pages_per_block + 1 and one host program ran), and
  // a victim has at most pages_per_block valid pages to relocate.
  while (WritableSlots() < cost_.pages_per_block + 1) {
    if (!CollectOneBlock()) break;
  }
}

Status SsdDevice::ReadPage(PageId page, std::span<std::byte> out) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("ReadPage: page " + std::to_string(page) +
                              " beyond ssd end " +
                              std::to_string(pages_.size()));
  }
  if (out.size() != page_size()) {
    return Status::InvalidArgument("ReadPage: buffer size mismatch");
  }
  std::memcpy(out.data(), pages_[page].get(), page_size());
  CountRead(page);
  return Status::Ok();
}

Status SsdDevice::WritePage(PageId page, std::span<const std::byte> in) {
  if (page >= pages_.size()) {
    return Status::OutOfRange("WritePage: page " + std::to_string(page) +
                              " beyond ssd end " +
                              std::to_string(pages_.size()));
  }
  if (in.size() != page_size()) {
    return Status::InvalidArgument("WritePage: buffer size mismatch");
  }
  std::memcpy(pages_[page].get(), in.data(), page_size());
  EnsureSpace();
  Invalidate(page);
  Program(page);
  CountWrite(page);
  return Status::Ok();
}

double SsdDevice::EstimateTimeMs() const {
  const DiskStats transfer = stats();
  return static_cast<double>(transfer.page_reads) * cost_.read_ms_per_page +
         static_cast<double>(transfer.page_writes + gc_copies_->total()) *
             cost_.program_ms_per_page +
         static_cast<double>(erases_->total()) * cost_.erase_ms_per_block;
}

double SsdDevice::WriteAmplification() const {
  const uint64_t host = stats().page_writes;
  if (host == 0) return 0.0;
  return static_cast<double>(host + gc_copies_->total()) /
         static_cast<double>(host);
}

}  // namespace odbgc
