// Field-for-field equality of two SimulationResults over the deterministic
// result surface: every field except `measured` (real wall-clock I/O) and
// `device` (the backend's identity), the two things runs of the same
// (config, seed) on different backends legitimately differ in.
#ifndef ODBGC_TESTS_SUPPORT_RESULT_EQUALITY_H_
#define ODBGC_TESTS_SUPPORT_RESULT_EQUALITY_H_

#include <gtest/gtest.h>

#include "sim/metrics.h"
#include "util/time_series.h"

namespace odbgc {

inline void ExpectSameSeries(const TimeSeries& a, const TimeSeries& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.points().size(), b.points().size()) << a.name();
  for (size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << a.name() << " point " << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << a.name() << " point " << i;
  }
}

inline void ExpectResultsIdentical(const SimulationResult& a,
                                   const SimulationResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.app_events, b.app_events);
  EXPECT_EQ(a.app_io, b.app_io);
  EXPECT_EQ(a.gc_io, b.gc_io);
  EXPECT_EQ(a.max_storage_bytes, b.max_storage_bytes);
  EXPECT_EQ(a.max_partitions, b.max_partitions);
  EXPECT_EQ(a.final_partitions, b.final_partitions);
  EXPECT_EQ(a.collections, b.collections);
  EXPECT_EQ(a.garbage_reclaimed_bytes, b.garbage_reclaimed_bytes);
  EXPECT_EQ(a.live_bytes_copied, b.live_bytes_copied);
  EXPECT_EQ(a.unreclaimed_garbage_bytes, b.unreclaimed_garbage_bytes);
  EXPECT_EQ(a.final_live_bytes, b.final_live_bytes);
  EXPECT_EQ(a.remset_entries, b.remset_entries);
  EXPECT_EQ(a.bytes_allocated, b.bytes_allocated);
  EXPECT_EQ(a.pointer_overwrites, b.pointer_overwrites);
  ExpectSameSeries(a.unreclaimed_garbage_kb, b.unreclaimed_garbage_kb);
  ExpectSameSeries(a.database_size_kb, b.database_size_kb);
  EXPECT_EQ(a.estimated_device_time_ms, b.estimated_device_time_ms);

  const HeapStats& ha = a.heap_stats;
  const HeapStats& hb = b.heap_stats;
  EXPECT_EQ(ha.collections, hb.collections);
  EXPECT_EQ(ha.full_collections, hb.full_collections);
  EXPECT_EQ(ha.pointer_stores, hb.pointer_stores);
  EXPECT_EQ(ha.pointer_overwrites, hb.pointer_overwrites);
  EXPECT_EQ(ha.objects_allocated, hb.objects_allocated);
  EXPECT_EQ(ha.bytes_allocated, hb.bytes_allocated);
  EXPECT_EQ(ha.garbage_bytes_reclaimed, hb.garbage_bytes_reclaimed);
  EXPECT_EQ(ha.garbage_objects_reclaimed, hb.garbage_objects_reclaimed);
  EXPECT_EQ(ha.live_bytes_copied, hb.live_bytes_copied);
  EXPECT_EQ(ha.live_objects_copied, hb.live_objects_copied);
  EXPECT_EQ(ha.max_total_bytes, hb.max_total_bytes);
  EXPECT_EQ(ha.max_partitions, hb.max_partitions);

  const BufferStats& ba = a.buffer_stats;
  const BufferStats& bb = b.buffer_stats;
  EXPECT_EQ(ba.hits, bb.hits);
  EXPECT_EQ(ba.misses, bb.misses);
  EXPECT_EQ(ba.reads_app, bb.reads_app);
  EXPECT_EQ(ba.reads_gc, bb.reads_gc);
  EXPECT_EQ(ba.writes_app, bb.writes_app);
  EXPECT_EQ(ba.writes_gc, bb.writes_gc);

  const DiskStats& da = a.disk_stats;
  const DiskStats& db = b.disk_stats;
  EXPECT_EQ(da.page_reads, db.page_reads);
  EXPECT_EQ(da.page_writes, db.page_writes);
  EXPECT_EQ(da.sequential_transfers, db.sequential_transfers);
  EXPECT_EQ(da.random_transfers, db.random_transfers);

  // The whole metrics registry, row by row.
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].name, b.metrics[i].name) << "sample " << i;
    EXPECT_EQ(a.metrics[i].application, b.metrics[i].application)
        << a.metrics[i].name;
    EXPECT_EQ(a.metrics[i].collector, b.metrics[i].collector)
        << a.metrics[i].name;
  }
}

}  // namespace odbgc

#endif  // ODBGC_TESTS_SUPPORT_RESULT_EQUALITY_H_
