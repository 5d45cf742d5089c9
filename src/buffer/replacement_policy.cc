#include "buffer/replacement_policy.h"

#include <cassert>

#include "util/open_hash_map.h"

namespace odbgc {

const char* ReplacementPolicyName(ReplacementPolicyKind kind) {
  switch (kind) {
    case ReplacementPolicyKind::kLru:
      return "lru";
    case ReplacementPolicyKind::kClock:
      return "clock";
    case ReplacementPolicyKind::kTwoQ:
      return "2q";
  }
  return "unknown";
}

namespace {

using FrameIndex = ReplacementPolicy::FrameIndex;

/// Link storage for intrusive index lists: `next`/`prev` arrays covering
/// every frame plus one node per list sentinel. A list is a cycle through
/// its sentinel (empty list: the sentinel links to itself), so insert and
/// unlink are branch-free index stores — the dense replacement for the
/// old std::list nodes. kUnlinked in `next` marks a node on no list,
/// which doubles as the membership test the old unordered_map provided.
struct LinkArray {
  static constexpr uint32_t kUnlinked = UINT32_MAX;

  std::vector<uint32_t> next;
  std::vector<uint32_t> prev;

  explicit LinkArray(size_t nodes)
      : next(nodes, kUnlinked), prev(nodes, kUnlinked) {}

  void ResetList(uint32_t sentinel) {
    next[sentinel] = sentinel;
    prev[sentinel] = sentinel;
  }

  void UnlinkAll() {
    next.assign(next.size(), kUnlinked);
    prev.assign(prev.size(), kUnlinked);
  }

  void InsertBefore(uint32_t pos, uint32_t node) {
    const uint32_t before = prev[pos];
    next[before] = node;
    prev[node] = before;
    next[node] = pos;
    prev[pos] = node;
  }

  void Unlink(uint32_t node) {
    next[prev[node]] = next[node];
    prev[next[node]] = prev[node];
    next[node] = kUnlinked;
    prev[node] = kUnlinked;
  }

  bool Linked(uint32_t node) const { return next[node] != kUnlinked; }
};

/// Strict LRU: a recency list spliced on every access — bit-identical to
/// the pool's original hard-wired behavior (verified by the buffer pool
/// property tests). The list threads through the frame array by index;
/// front (next of the sentinel) is most recently used.
class LruPolicy : public ReplacementPolicy {
 public:
  explicit LruPolicy(size_t frame_count)
      : sentinel_(static_cast<FrameIndex>(frame_count)),
        links_(frame_count + 1),
        page_(frame_count, kInvalidPageId) {
    links_.ResetList(sentinel_);
  }

  ReplacementPolicyKind kind() const override {
    return ReplacementPolicyKind::kLru;
  }

  void OnInsert(FrameIndex frame, PageId page) override {
    page_[frame] = page;
    links_.InsertBefore(links_.next[sentinel_], frame);  // Push front.
    ++size_;
  }

  void OnHit(FrameIndex frame) override {
    links_.Unlink(frame);
    links_.InsertBefore(links_.next[sentinel_], frame);
  }

  FrameIndex ChooseVictim() override {
    assert(links_.prev[sentinel_] != sentinel_);
    return links_.prev[sentinel_];
  }

  void OnErase(FrameIndex frame) override {
    if (!links_.Linked(frame)) return;
    links_.Unlink(frame);
    page_[frame] = kInvalidPageId;
    --size_;
  }

  std::vector<PageId> Order() const override {
    std::vector<PageId> order;
    order.reserve(size_);
    for (uint32_t i = links_.next[sentinel_]; i != sentinel_;
         i = links_.next[i]) {
      order.push_back(page_[i]);
    }
    return order;
  }

  void Clear() override {
    links_.UnlinkAll();
    links_.ResetList(sentinel_);
    page_.assign(page_.size(), kInvalidPageId);
    size_ = 0;
  }

 private:
  const FrameIndex sentinel_;
  LinkArray links_;
  std::vector<PageId> page_;
  size_t size_ = 0;
};

/// Second-chance clock: frames sit on a ring; a hit sets the ref bit; the
/// hand sweeps, clearing ref bits, and evicts the first unreferenced
/// frame. New frames enter just behind the hand with their ref bit set.
/// The sentinel plays the old iterator's end(): a hand parked there wraps
/// to the front on the next sweep, and inserting before it appends.
class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(size_t frame_count)
      : sentinel_(static_cast<FrameIndex>(frame_count)),
        links_(frame_count + 1),
        page_(frame_count, kInvalidPageId),
        referenced_(frame_count, false),
        hand_(sentinel_) {
    links_.ResetList(sentinel_);
  }

  ReplacementPolicyKind kind() const override {
    return ReplacementPolicyKind::kClock;
  }

  void OnInsert(FrameIndex frame, PageId page) override {
    page_[frame] = page;
    referenced_[frame] = true;
    ++size_;
    if (links_.next[sentinel_] == sentinel_) {
      links_.InsertBefore(sentinel_, frame);
      hand_ = frame;
      return;
    }
    // Inserting before the hand makes the new frame the last one the next
    // sweep examines.
    links_.InsertBefore(hand_, frame);
  }

  void OnHit(FrameIndex frame) override { referenced_[frame] = true; }

  FrameIndex ChooseVictim() override {
    assert(links_.next[sentinel_] != sentinel_);
    for (;;) {
      if (hand_ == sentinel_) hand_ = links_.next[sentinel_];
      if (referenced_[hand_]) {
        referenced_[hand_] = false;
        hand_ = links_.next[hand_];
      } else {
        return hand_;
      }
    }
  }

  void OnErase(FrameIndex frame) override {
    if (!links_.Linked(frame)) return;
    if (hand_ == frame) hand_ = links_.next[frame];
    links_.Unlink(frame);
    page_[frame] = kInvalidPageId;
    --size_;
  }

  /// Ring order starting at the hand (the next sweep's examination
  /// order).
  std::vector<PageId> Order() const override {
    std::vector<PageId> order;
    order.reserve(size_);
    ForEachInHandOrder([&order](PageId page, bool /*referenced*/) {
      order.push_back(page);
    });
    return order;
  }

  void Clear() override {
    links_.UnlinkAll();
    links_.ResetList(sentinel_);
    page_.assign(page_.size(), kInvalidPageId);
    referenced_.assign(referenced_.size(), false);
    hand_ = sentinel_;
    size_ = 0;
  }

 private:
  template <typename Fn>
  void ForEachInHandOrder(Fn fn) const {
    for (uint32_t i = hand_; i != sentinel_; i = links_.next[i]) {
      fn(page_[i], static_cast<bool>(referenced_[i]));
    }
    for (uint32_t i = links_.next[sentinel_]; i != hand_;
         i = links_.next[i]) {
      fn(page_[i], static_cast<bool>(referenced_[i]));
    }
  }

  const FrameIndex sentinel_;
  LinkArray links_;
  std::vector<PageId> page_;
  std::vector<uint8_t> referenced_;
  FrameIndex hand_;
  size_t size_ = 0;
};

/// 2Q (Johnson & Shasha): first-touch pages enter a small FIFO probation
/// queue (A1in); pages evicted from probation are remembered in a ghost
/// list (A1out, ids only); a page re-fetched while on the ghost list is
/// promoted to the protected LRU main queue (Am). One collection's
/// partition scan therefore churns probation without displacing the
/// application's hot set.
///
/// Both resident queues thread one shared link array over the frames (a
/// frame is on at most one of them); the ghost list — whose pages have
/// no frame — lives in its own kout_-slot arena with an OpenIndexMap for
/// the ghost-hit probe.
class TwoQPolicy : public ReplacementPolicy {
 public:
  explicit TwoQPolicy(size_t frame_count)
      : kin_(frame_count / 4 > 0 ? frame_count / 4 : 1),
        kout_(frame_count / 2 > 0 ? frame_count / 2 : 1),
        in_sentinel_(static_cast<FrameIndex>(frame_count)),
        am_sentinel_(static_cast<FrameIndex>(frame_count + 1)),
        links_(frame_count + 2),
        page_(frame_count, kInvalidPageId),
        in_probation_(frame_count, false),
        ghost_sentinel_(static_cast<uint32_t>(kout_)),
        ghost_links_(kout_ + 1),
        ghost_page_(kout_, kInvalidPageId),
        ghost_pos_(kout_) {
    links_.ResetList(in_sentinel_);
    links_.ResetList(am_sentinel_);
    ghost_links_.ResetList(ghost_sentinel_);
    RefillGhostSlots();
  }

  ReplacementPolicyKind kind() const override {
    return ReplacementPolicyKind::kTwoQ;
  }

  void OnInsert(FrameIndex frame, PageId page) override {
    if (ghost_pos_.Contains(page)) {
      RemoveGhost(page);
      page_[frame] = page;
      in_probation_[frame] = false;
      links_.InsertBefore(links_.next[am_sentinel_], frame);
      ++am_count_;
      return;
    }
    page_[frame] = page;
    in_probation_[frame] = true;
    links_.InsertBefore(links_.next[in_sentinel_], frame);
    ++in_count_;
  }

  void OnHit(FrameIndex frame) override {
    // Classic 2Q: hits inside probation do not promote (that would make
    // A1in an LRU and defeat scan resistance); hits in Am refresh
    // recency.
    if (!in_probation_[frame]) {
      links_.Unlink(frame);
      links_.InsertBefore(links_.next[am_sentinel_], frame);
    }
  }

  FrameIndex ChooseVictim() override {
    assert(in_count_ + am_count_ > 0);
    if (in_count_ > kin_ || am_count_ == 0) return links_.prev[in_sentinel_];
    return links_.prev[am_sentinel_];
  }

  void OnEvict(FrameIndex frame) override {
    if (!links_.Linked(frame)) return;
    const bool was_probation = in_probation_[frame];
    const PageId page = page_[frame];
    RemoveResident(frame);
    if (was_probation) {
      // Remember the evictee: a quick second fetch proves it deserves the
      // protected queue. A full ghost list drops its oldest entry.
      uint32_t slot;
      if (ghost_free_.empty()) {
        slot = ghost_links_.prev[ghost_sentinel_];
        ghost_pos_.Erase(ghost_page_[slot]);
        ghost_links_.Unlink(slot);
      } else {
        slot = ghost_free_.back();
        ghost_free_.pop_back();
      }
      ghost_page_[slot] = page;
      ghost_links_.InsertBefore(ghost_links_.next[ghost_sentinel_], slot);
      ghost_pos_.Insert(page, slot);
    }
  }

  void OnErase(FrameIndex frame) override {
    if (!links_.Linked(frame)) return;
    RemoveResident(frame);
  }

  /// Protected pages (MRU first), then probation (newest first).
  std::vector<PageId> Order() const override {
    std::vector<PageId> order;
    order.reserve(am_count_ + in_count_);
    AppendList(am_sentinel_, &order);
    AppendList(in_sentinel_, &order);
    return order;
  }

  void Clear() override {
    links_.UnlinkAll();
    links_.ResetList(in_sentinel_);
    links_.ResetList(am_sentinel_);
    page_.assign(page_.size(), kInvalidPageId);
    in_probation_.assign(in_probation_.size(), false);
    in_count_ = 0;
    am_count_ = 0;
    ghost_links_.UnlinkAll();
    ghost_links_.ResetList(ghost_sentinel_);
    ghost_page_.assign(ghost_page_.size(), kInvalidPageId);
    ghost_pos_.Clear();
    RefillGhostSlots();
  }

 private:
  void RemoveResident(FrameIndex frame) {
    links_.Unlink(frame);
    if (in_probation_[frame]) {
      --in_count_;
    } else {
      --am_count_;
    }
    page_[frame] = kInvalidPageId;
  }

  void RemoveGhost(PageId page) {
    const uint32_t slot = ghost_pos_.Find(page);
    ghost_pos_.Erase(page);
    ghost_links_.Unlink(slot);
    ghost_page_[slot] = kInvalidPageId;
    ghost_free_.push_back(slot);
  }

  void RefillGhostSlots() {
    ghost_free_.clear();
    // Popped from the back: fresh ghosts take slots 0, 1, ... in order.
    for (size_t slot = kout_; slot > 0; --slot) {
      ghost_free_.push_back(static_cast<uint32_t>(slot - 1));
    }
  }

  void AppendList(uint32_t sentinel, std::vector<PageId>* order) const {
    for (uint32_t i = links_.next[sentinel]; i != sentinel;
         i = links_.next[i]) {
      order->push_back(page_[i]);
    }
  }

  const size_t kin_;
  const size_t kout_;
  const FrameIndex in_sentinel_;
  const FrameIndex am_sentinel_;
  LinkArray links_;                   // A1in + Am share the frame nodes.
  std::vector<PageId> page_;
  std::vector<uint8_t> in_probation_;  // Which queue a linked frame is on.
  size_t in_count_ = 0;
  size_t am_count_ = 0;
  const uint32_t ghost_sentinel_;
  LinkArray ghost_links_;             // A1out arena, front = newest ghost.
  std::vector<PageId> ghost_page_;
  std::vector<uint32_t> ghost_free_;
  OpenIndexMap ghost_pos_;            // Ghost page id -> arena slot.
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(
    ReplacementPolicyKind kind, size_t frame_count) {
  switch (kind) {
    case ReplacementPolicyKind::kLru:
      return std::make_unique<LruPolicy>(frame_count);
    case ReplacementPolicyKind::kClock:
      return std::make_unique<ClockPolicy>(frame_count);
    case ReplacementPolicyKind::kTwoQ:
      return std::make_unique<TwoQPolicy>(frame_count);
  }
  return std::make_unique<LruPolicy>(frame_count);
}

}  // namespace odbgc
