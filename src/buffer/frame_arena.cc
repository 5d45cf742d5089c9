#include "buffer/frame_arena.h"

#include <cassert>

namespace odbgc {

SharedFrameArena::SharedFrameArena(size_t frame_count) {
  assert(frame_count > 0);
  frames_.resize(frame_count);
  free_frames_.reserve(frame_count);
}

uint32_t SharedFrameArena::TryAllocFrame() {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  if (!free_frames_.empty()) {
    const uint32_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  if (used_frames_ < frames_.size()) return used_frames_++;
  return kNoFrame;
}

void SharedFrameArena::ReleaseFrame(uint32_t frame) {
  assert(frame < frames_.size());
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  free_frames_.push_back(frame);
}

void SharedFrameArena::ReleaseFrames(std::span<const uint32_t> frames) {
  if (frames.empty()) return;
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  for (uint32_t frame : frames) {
    assert(frame < frames_.size());
    free_frames_.push_back(frame);
  }
}

uint64_t SharedFrameArena::FramesInUse() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return used_frames_ - free_frames_.size();
}

}  // namespace odbgc
