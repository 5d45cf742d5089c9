// Storage-engine I/O probe: measures the file-backed PageDevice the same
// way hotpath.cc measures the simulator — a fixed set of named probes and
// a JSON artifact for CI. No paper table; this grounds the cost model the
// paper only estimates ("number of page I/O operations") in wall-clock
// numbers from a real file.
//
// Probes:
//   write_bXXX[_direct]   write every page in batches of XXX pages, each
//                         batch fanned out over one executor per CPU
//                         (fsync per barrier), buffered and O_DIRECT (the
//                         latter silently measures the buffered fallback
//                         on filesystems that refuse O_DIRECT —
//                         `direct_effective` records which)
//   read_seq              sequential ReadPage sweep, read-ahead disabled
//   read_readahead        the same sweep with Prefetch announcing each
//                         64-page window ahead of the reads, each window
//                         fanned out like a write batch
//   checksum_8k           Crc32 over 8 KB pages, the sealing and checking
//                         cost inside every transfer above, in ns per page,
//                         with the kernel that ran
//
// Every probe runs five times, one round of all probes after another, so
// a slow spell of the host lands on every probe alike; the JSON gives each
// rate as the median, min and max of its five runs.
//
// Usage: io_file [output.json]
//
// The working file lives under $TMPDIR (default /tmp); CI points TMPDIR at
// a tmpfs so the numbers measure the engine, not a CI disk's mood.
// ODBGC_FAST=1 quarters the page count.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/file_device.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"

namespace odbgc {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kPageSize = 8192;
constexpr int kRounds = 5;

size_t NumPages() {
  return bench::FastMode() ? 512 : 2048;  // 4 MB / 16 MB of payload.
}

std::string WorkPath(const std::string& name) {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base = tmpdir != nullptr ? tmpdir : "/tmp";
  return base + "/odbgc_io_file_" + name + ".odb";
}

/// One run of one I/O probe.
struct ProbeResult {
  std::string name;
  bool direct_requested = false;
  bool direct_effective = false;
  size_t batch_pages = 0;
  size_t pages = 0;
  double wall_seconds = 0;
  double pages_per_sec = 0;
  uint64_t fsyncs = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_misses = 0;
};

double MbPerSec(double pages_per_sec) {
  return pages_per_sec * kPageSize / (1024.0 * 1024.0);
}

void Report(const ProbeResult& p) {
  std::printf("%-18s pages=%-6zu batch=%-4zu wall=%8.4fs  %10.0f pages/s"
              "  %8.1f MB/s%s\n",
              p.name.c_str(), p.pages, p.batch_pages, p.wall_seconds,
              p.pages_per_sec, MbPerSec(p.pages_per_sec),
              p.direct_requested
                  ? (p.direct_effective ? "  [O_DIRECT]" : "  [buffered fallback]")
                  : "");
}

const char* ChecksumKernel() {
  return crc32_internal::FoldingAvailable() ? "pclmul-folding" : "table";
}

size_t ChecksumPages() { return bench::FastMode() ? 5000 : 20000; }

/// Mean ns per 8 KB page of Crc32 over ChecksumPages() pages.
double ChecksumNsPerPage() {
  std::vector<unsigned char> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  // Each checksum seeds the next, so no call can be skipped or hoisted.
  uint32_t crc = 0;
  const size_t pages = ChecksumPages();
  const auto start = Clock::now();
  for (size_t i = 0; i < pages; ++i) {
    crc = Crc32(page.data(), page.size(), crc);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      static_cast<double>(pages);
  std::printf("%-18s pages=%-6zu %8.1f ns/page  kernel=%s  (crc %08x)\n",
              "checksum_8k", pages, ns, ChecksumKernel(),
              static_cast<unsigned>(crc));
  return ns;
}

ProbeResult WriteProbe(size_t batch_pages, bool direct) {
  const size_t pages = NumPages();
  FileDeviceOptions options;
  options.path = WorkPath("write");
  options.direct_io = direct;
  options.readahead_pages = 0;
  options.io_threads = 0;  // Fan batches out over every CPU.
  FileDevice device(kPageSize, nullptr, options);
  if (!device.status().ok()) bench::Fail(device.status(), "io_file open");
  device.AllocatePages(pages);

  std::vector<std::byte> payload(kPageSize);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }

  const auto start = Clock::now();
  std::vector<PageWriteRequest> batch;
  batch.reserve(batch_pages);
  for (size_t first = 0; first < pages; first += batch_pages) {
    batch.clear();
    const size_t count = std::min(batch_pages, pages - first);
    for (size_t i = 0; i < count; ++i) {
      batch.push_back({static_cast<PageId>(first + i),
                       {payload.data(), payload.size()}});
    }
    size_t written = 0;
    if (Status status = device.WritePages(batch.data(), batch.size(),
                                          &written);
        !status.ok()) {
      bench::Fail(status, "io_file write");
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  ProbeResult probe;
  probe.name = "write_b" + std::to_string(batch_pages) +
               (direct ? "_direct" : "");
  probe.direct_requested = direct;
  probe.direct_effective = device.direct_io_effective();
  probe.batch_pages = batch_pages;
  probe.pages = pages;
  probe.wall_seconds = seconds;
  probe.pages_per_sec = seconds > 0 ? pages / seconds : 0;
  probe.fsyncs = device.MeasuredStats().fsyncs;
  ::unlink(options.path.c_str());
  Report(probe);
  return probe;
}

ProbeResult ReadProbe(bool readahead) {
  const size_t pages = NumPages();
  constexpr size_t kWindow = 64;
  FileDeviceOptions options;
  options.path = WorkPath("read");
  options.readahead_pages = readahead ? kWindow : 0;
  options.io_threads = 0;  // Fan prefetch windows out over every CPU.
  FileDevice device(kPageSize, nullptr, options);
  if (!device.status().ok()) bench::Fail(device.status(), "io_file open");
  device.AllocatePages(pages);

  std::vector<std::byte> payload(kPageSize, std::byte{0x42});
  for (size_t p = 0; p < pages; ++p) {
    if (Status status = device.WritePage(p, payload); !status.ok()) {
      bench::Fail(status, "io_file prepare");
    }
  }

  std::vector<std::byte> out(kPageSize);
  std::vector<PageId> window;
  const auto start = Clock::now();
  for (size_t p = 0; p < pages; ++p) {
    if (readahead && p % kWindow == 0) {
      window.clear();
      for (size_t i = p; i < std::min(p + kWindow, pages); ++i) {
        window.push_back(static_cast<PageId>(i));
      }
      device.Prefetch(window);
    }
    if (Status status = device.ReadPage(p, out); !status.ok()) {
      bench::Fail(status, "io_file read");
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  const MeasuredIoStats measured = device.MeasuredStats();
  ProbeResult probe;
  probe.name = readahead ? "read_readahead" : "read_seq";
  probe.batch_pages = readahead ? kWindow : 1;
  probe.pages = pages;
  probe.wall_seconds = seconds;
  probe.pages_per_sec = seconds > 0 ? pages / seconds : 0;
  probe.readahead_hits = measured.readahead_hits;
  probe.readahead_misses = measured.readahead_misses;
  ::unlink(options.path.c_str());
  Report(probe);
  return probe;
}

}  // namespace
}  // namespace odbgc

int main(int argc, char** argv) {
  using namespace odbgc;

  const char* json_path = "BENCH_storage.json";
  if (argc > 1) json_path = argv[1];

  bench::PrintHeader("File-backend I/O probes",
                     "storage engineering (no paper table)");

  std::vector<std::function<ProbeResult()>> probes;
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{32}, size_t{128}}) {
    probes.push_back([batch] { return WriteProbe(batch, /*direct=*/false); });
  }
  for (const size_t batch : {size_t{32}, size_t{128}}) {
    probes.push_back([batch] { return WriteProbe(batch, /*direct=*/true); });
  }
  probes.push_back([] { return ReadProbe(/*readahead=*/false); });
  probes.push_back([] { return ReadProbe(/*readahead=*/true); });

  // runs[i] holds probe i's runs, one per round.
  std::vector<std::vector<ProbeResult>> runs(probes.size());
  std::vector<double> checksum_ns;
  for (int round = 1; round <= kRounds; ++round) {
    std::printf("-- round %d of %d\n", round, kRounds);
    for (size_t i = 0; i < probes.size(); ++i) runs[i].push_back(probes[i]());
    checksum_ns.push_back(ChecksumNsPerPage());
  }

  std::printf("\n%-18s %28s  %s\n", "probe",
              "pages/s median [min, max]", "(5 runs)");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"storage\",\n";
  json << "  \"fast_mode\": " << (bench::FastMode() ? "true" : "false")
       << ",\n  \"page_size\": " << kPageSize
       << ",\n  \"rounds\": " << kRounds << ",\n  \"probes\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    // Everything but the rates is the same in every round.
    const ProbeResult& p = runs[i].front();
    std::vector<double> rates;
    for (const ProbeResult& run : runs[i]) rates.push_back(run.pages_per_sec);
    const bench::Spread pages_per_sec = bench::SpreadOf(rates);
    const bench::Spread mb_per_sec{MbPerSec(pages_per_sec.median),
                                   MbPerSec(pages_per_sec.min),
                                   MbPerSec(pages_per_sec.max)};
    std::printf("%-18s %10.0f [%8.0f, %8.0f]\n", p.name.c_str(),
                pages_per_sec.median, pages_per_sec.min, pages_per_sec.max);
    json << "    {\n      \"name\": \"" << p.name << "\",\n";
    json << "      \"direct_requested\": "
         << (p.direct_requested ? "true" : "false") << ",\n";
    json << "      \"direct_effective\": "
         << (p.direct_effective ? "true" : "false") << ",\n";
    json << "      \"batch_pages\": " << p.batch_pages << ",\n";
    json << "      \"pages\": " << p.pages << ",\n";
    json << "      ";
    bench::WriteSpread(json, "pages_per_sec", pages_per_sec);
    json << ",\n      ";
    bench::WriteSpread(json, "mb_per_sec", mb_per_sec);
    json << ",\n";
    json << "      \"fsyncs\": " << p.fsyncs << ",\n";
    json << "      \"readahead_hits\": " << p.readahead_hits << ",\n";
    json << "      \"readahead_misses\": " << p.readahead_misses << "\n";
    json << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  const bench::Spread checksum = bench::SpreadOf(checksum_ns);
  std::printf("%-18s %10.1f [%8.1f, %8.1f] ns/page  kernel=%s\n",
              "checksum_8k", checksum.median, checksum.min, checksum.max,
              ChecksumKernel());
  json << "  ],\n  \"checksum_8k\": {\"kernel\": \"" << ChecksumKernel()
       << "\", \"pages\": " << ChecksumPages() << ", ";
  bench::WriteSpread(json, "ns_per_page", checksum);
  json << "}\n}\n";
  json.close();
  std::printf("\nWrote %s\n", json_path);
  return json.good() ? 0 : 1;
}
