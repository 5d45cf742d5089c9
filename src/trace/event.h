#ifndef ODBGC_TRACE_EVENT_H_
#define ODBGC_TRACE_EVENT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.h"

namespace odbgc {

/// Kinds of application events in a trace. A trace is the complete record
/// of an application's interaction with the object database; replaying it
/// through heaps configured with different policies is the paper's
/// trace-driven evaluation method (every policy sees the identical event
/// stream).
enum class EventKind : uint8_t {
  kAlloc = 1,      ///< Create an object.
  kWriteSlot = 2,  ///< Store a pointer (possibly null) into a slot.
  kReadSlot = 3,   ///< Read a pointer slot (edge traversal).
  kVisit = 4,      ///< Visit an object (read header + slots).
  kWriteData = 5,  ///< Mutate non-pointer data (cannot create garbage).
  kAddRoot = 6,    ///< Add an object to the database root set.
  kRemoveRoot = 7, ///< Remove an object from the root set.
};

/// Human-readable kind name ("Alloc", "WriteSlot", ...).
const char* EventKindName(EventKind kind);

/// One application event. Object identity in a trace is the generator's
/// logical numbering (1-based, dense); the simulator maps logical ids to
/// store ObjectIds at replay time.
struct TraceEvent {
  EventKind kind = EventKind::kVisit;
  uint64_t object = 0;       ///< Subject of the event (alloc: the new id).
  uint32_t slot = 0;         ///< kWriteSlot / kReadSlot.
  uint64_t target = 0;       ///< kWriteSlot: new value (0 = null).
  uint32_t size = 0;         ///< kAlloc: total object bytes.
  uint32_t num_slots = 0;    ///< kAlloc.
  uint64_t parent_hint = 0;  ///< kAlloc: placement hint (0 = none).
  uint8_t flags = 0;         ///< kAlloc: object flags (kFlagLarge).

  // -- Convenience constructors --------------------------------------------
  static TraceEvent Alloc(uint64_t id, uint32_t size, uint32_t num_slots,
                          uint64_t parent_hint = 0, uint8_t flags = 0);
  static TraceEvent WriteSlot(uint64_t object, uint32_t slot,
                              uint64_t target);
  static TraceEvent ReadSlot(uint64_t object, uint32_t slot);
  static TraceEvent Visit(uint64_t object);
  static TraceEvent WriteData(uint64_t object);
  static TraceEvent AddRoot(uint64_t object);
  static TraceEvent RemoveRoot(uint64_t object);

  friend bool operator==(const TraceEvent& a, const TraceEvent& b);

  /// Debug rendering, e.g. "WriteSlot obj=12 slot=1 target=7".
  std::string ToString() const;
};

/// Serializes one event record (kind byte + varint-encoded fields) — the
/// wire format of trace files. IoError if the stream fails.
Status WriteEventBody(std::ostream& out, const TraceEvent& event);

/// Parses one event record. Corruption on an unknown kind byte or a record
/// truncated mid-field; the caller handles clean EOF before the kind byte.
Result<TraceEvent> ReadEventBody(std::istream& in);

/// Consumer of a stream of trace events. The workload generator emits into
/// a sink; TraceWriter (file capture), the Simulator (live replay) and
/// in-memory vectors all implement it.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual Status Append(const TraceEvent& event) = 0;
};

/// A sink that collects events into a vector (tests, small workloads).
class VectorTraceSink : public TraceSink {
 public:
  Status Append(const TraceEvent& event) override {
    events_.push_back(event);
    return Status::Ok();
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> TakeEvents() { return std::move(events_); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace odbgc

#endif  // ODBGC_TRACE_EVENT_H_
