#ifndef WEBTX_SCHED_POLICIES_ASETS_STAR_H_
#define WEBTX_SCHED_POLICIES_ASETS_STAR_H_

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "sched/indexed_priority_queue.h"
#include "sched/lazy_delete_heap.h"
#include "sched/policies/asets.h"
#include "sched/scheduler_policy.h"
#include "txn/workflow.h"

namespace webtx {

/// How ASETS* chooses a workflow's head transaction when several members
/// are ready (Definition 8 leaves this open). Ablated by
/// bench/ablation_head_choice.
enum class HeadSelectionRule {
  kEarliestDeadline,   // default: most urgent ready member
  kShortestRemaining,  // cheapest ready member
  kFifoArrival,        // earliest-arrived ready member
};

struct AsetsStarOptions {
  AsetsOptions impact;  // negative-impact rule knobs (shared with ASETS)
  HeadSelectionRule head_rule = HeadSelectionRule::kEarliestDeadline;
};

/// ASETS*: the workflow-level, weight-aware generalization of ASETS
/// (Sec. III-B/III-C, Fig. 7) — the paper's primary contribution.
///
/// Scheduling units are *workflows* (one per root transaction, Sec. II-A).
/// Each workflow with at least one ready member is represented by:
///   - its *head* transaction T_head: a ready member (Definition 8), the
///     transaction that actually runs if the workflow wins;
///   - its *representative* transaction T_rep (Definition 9): a virtual
///     transaction with d_rep = min deadline, r_rep = min remaining time
///     and w_rep = max weight over the workflow's in-system (arrived,
///     unfinished) members — letting the scheduler "see into the Wait
///     queue" and boost heads whose dependents are urgent or valuable.
///
/// A workflow sits in the EDF-List iff its representative can still meet
/// its deadline (now + r_rep <= d_rep), ordered by d_rep; otherwise in the
/// HDF-List ordered by r_rep/w_rep. The winner between the two list tops
/// minimizes weighted negative impact:
///
///   impact(EDF wf)  = r_head,EDF * w_rep,HDF                 (Fig. 7 l.15)
///   impact(HDF wf)  = max(0, r_head,HDF - s_rep,EDF) * w_rep,EDF   (l.16)
///
/// With singleton workflows (no precedence constraints) head == rep and
/// ASETS* reduces exactly to transaction-level ASETS; with equal weights
/// HDF reduces to SRPT — the policy is parameter-free and adapts to load,
/// dependencies and weights automatically.
///
/// Hot-path contract (Sec. III-A2): every scheduler event is
/// O(live members + log #workflows) and allocation-free after Bind. Each
/// workflow tracks its *live* member set (arrived, unfinished)
/// incrementally — membership changes only at arrival / completion /
/// drop — so per-event refreshes scan live members only, never the full
/// `wf.members` roster, and re-file the workflow in the EDF-/HDF-lists
/// only when its key or target list actually changed. rep_remaining and
/// the head are recomputed from live values at every touch because the
/// simulator charges progress to outage-preempted and aborted
/// transactions without a policy callback; cached copies of either would
/// go stale (see tests/sched/asets_star_incremental_test.cc, which
/// asserts byte-identical schedules against the pre-optimization
/// full-rescan reference).
///
/// Callback bursts are additionally BATCHED: a lifecycle callback only
/// marks the affected workflows dirty (live-set membership and the
/// static aggregates stay immediate), and the recompute-and-refile
/// happens once per dirty workflow at the next flush point — the top of
/// PickNext / PickNextExcluding, i.e. the simulator's next scheduling
/// round at the same instant. A multi-completion or crash instant that
/// touches one workflow through several members therefore pays one
/// refile instead of one per callback. Byte-identity is preserved
/// because the flush runs at the same simulation time as the marks and
/// a workflow's filing depends only on its own final state (both queue
/// types order by content, (key, id), never by operation history).
///
/// A k-server round is BATCHED the same way (PickBatch). The greedy
/// PickNextExcluding chain parks the workflows of all i earlier picks at
/// slot i and restores them afterwards — k(k-1) park-and-restore refiles
/// per round. The batch instead grows one exclusion set: each pick joins
/// it once, only that pick's workflows are marked, and the next PickNext
/// flush parks them; one flush at the end of the round restores every
/// parked workflow. Picks are identical to the chain's because the
/// exclusion is monotone within a round: excluding a member changes only
/// its workflow's head and active bit (never rep_deadline, rep_remaining,
/// rep_weight or the target list, so never a key), a workflow's Touch
/// depends only on which of its own members are excluded, and those
/// stay excluded until the round ends — so every workflow is filed at
/// slot i exactly as the chain files it. For k = 4 that is 3 parks plus
/// 3 restores instead of 6 + 6.
///
/// The class is templated on the priority-queue type backing the three
/// lists. `Queue` must provide the IndexedPriorityQueue surface
/// (Reserve/empty/size/Contains/KeyOf/Push/Top/TopKey/Pop/Erase/Update/
/// UpdateKeyIfChanged/PushOrUpdate/Clear) with identical (key, id) pop
/// order. Instantiations:
///   - AsetsStarPolicy      = AsetsStarPolicyT<IndexedPriorityQueue>
///     ("ASETS*", the default) — strict indexed binary heap;
///   - AsetsStarLazyPolicy  = AsetsStarPolicyT<LazyDeleteHeap>
///     ("ASETS*-lazy", factory-constructible) — tombstone heap for
///     huge-scale runs. Byte-identical schedules to the default are
///     pinned by the huge-structures differential matrix.
template <typename Queue>
class AsetsStarPolicyT final : public SchedulerPolicy {
 public:
  explicit AsetsStarPolicyT(AsetsStarOptions options = {})
      : options_(options) {}

  std::string name() const override {
    return std::is_same_v<Queue, LazyDeleteHeap> ? "ASETS*-lazy" : "ASETS*";
  }

  void Bind(const SimView& view) override;
  void OnArrival(TxnId id, SimTime now) override;
  void OnReady(TxnId id, SimTime now) override;
  void OnCompletion(TxnId id, SimTime now) override;
  void OnRemainingUpdated(TxnId id, SimTime now) override;
  void OnDropped(TxnId id, SimTime now) override;
  void OnMigrated(TxnId id, SimTime now) override;
  TxnId PickNext(SimTime now) override;
  TxnId PickNextExcluding(SimTime now,
                          const std::vector<TxnId>& exclude) override;
  void PickBatch(SimTime now, size_t k, std::vector<TxnId>& out) override;

  /// Introspection for tests. Non-const: flushes pending dirty refiles
  /// so the lists reflect every callback delivered so far.
  size_t edf_list_size() {
    FlushDirty(dirty_now_);
    return edf_.size();
  }
  size_t hdf_list_size() {
    FlushDirty(dirty_now_);
    return hdf_.size();
  }

  /// Representative / head of a workflow as currently cached (tests only).
  struct WorkflowSnapshot {
    bool active = false;
    TxnId head = kInvalidTxn;
    SimTime rep_deadline = 0.0;
    SimTime rep_remaining = 0.0;
    double rep_weight = 0.0;
  };
  WorkflowSnapshot SnapshotOf(WorkflowId id);

 protected:
  void Reset() override;

 private:
  struct WorkflowState {
    bool active = false;     // has at least one ready member
    TxnId head = kInvalidTxn;
    SimTime rep_deadline = 0.0;
    SimTime rep_remaining = 0.0;
    double rep_weight = 1.0;
    /// In-system (arrived, unfinished) members, maintained incrementally
    /// as the slice live_arena_[live_begin, live_begin + live_size). Scan
    /// order differs from wf.members but every fold over it (min / max /
    /// HeadBetter) is a total order, so results are order-invariant.
    size_t live_begin = 0;
    size_t live_size = 0;
  };

  /// Folds the arriving member into the workflow's live set and static
  /// aggregates (min deadline, max weight), then touches the workflow.
  void AddLiveMember(WorkflowId wid, TxnId id);

  /// Drops a departed (finished or dropped) member from the live set and
  /// re-derives the static aggregates from the survivors. Tolerates ids
  /// that never arrived (admission-shed before OnArrival).
  void RemoveLiveMember(WorkflowId wid, TxnId id);

  /// Recomputes rep_remaining and the head from the live members' current
  /// values and re-files the workflow in the EDF-/HDF-List iff its target
  /// list or key changed. O(live members + log #workflows), no allocation.
  void Touch(WorkflowId wid, SimTime now);

  /// Queues the workflow for a Touch at the next flush point. Idempotent
  /// within a burst: the second mark of the same workflow is free.
  void MarkDirty(WorkflowId wid, SimTime now);

  /// Marks every workflow the transaction belongs to dirty.
  void MarkWorkflowsOf(TxnId id, SimTime now);

  /// Applies one Touch per dirty workflow and clears the dirty set.
  void FlushDirty(SimTime now);

  /// Moves EDF-List workflows whose representative deadline became
  /// unreachable to the HDF-List.
  void MigrateDue(SimTime now);

  double HdfKey(const WorkflowState& ws) const {
    return ws.rep_remaining / ws.rep_weight;
  }

  /// True when `a` beats `b` under the configured head-selection rule.
  bool HeadBetter(TxnId a, TxnId b) const;

  bool IsExcluded(TxnId id) const;

  AsetsStarOptions options_;
  std::vector<WorkflowState> states_;
  /// Backing store for every workflow's live slice: one allocation per
  /// Bind instead of one vector per workflow (workflow wid owns the
  /// members.size()-capacity slice starting at states_[wid].live_begin).
  std::vector<TxnId> live_arena_;
  /// Transactions already placed on other servers during a multi-server
  /// scheduling round; Touch skips them as head candidates. Empty
  /// outside PickNextExcluding / PickBatch; reserved to num_servers() in
  /// Bind so a round never allocates.
  std::vector<TxnId> excluded_heads_;
  /// Dirty-set batching state: dirty_[wid] != 0 iff wid is queued in
  /// dirty_list_ awaiting a Touch. dirty_now_ remembers the timestamp of
  /// the latest mark so const-free introspection can flush at the right
  /// instant (callback bursts and the following flush share one `now`).
  std::vector<char> dirty_;
  std::vector<WorkflowId> dirty_list_;
  SimTime dirty_now_ = 0.0;
  Queue edf_;       // key: d_rep
  Queue hdf_;       // key: r_rep / w_rep
  Queue critical_;  // EDF-List members, key: d_rep - r_rep
};

/// The paper's ASETS* over the strict indexed binary heap (default).
using AsetsStarPolicy = AsetsStarPolicyT<IndexedPriorityQueue>;

/// ASETS* over the lazy-delete heap ("ASETS*-lazy" in the factory).
using AsetsStarLazyPolicy = AsetsStarPolicyT<LazyDeleteHeap>;

extern template class AsetsStarPolicyT<IndexedPriorityQueue>;
extern template class AsetsStarPolicyT<LazyDeleteHeap>;

// ---------------------------------------------------------------------------
// Implementation. Kept in the header because the class is a template;
// the two supported instantiations are compiled once in asets_star.cc
// (extern template above keeps every other TU from re-instantiating).

namespace asets_star_internal {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace asets_star_internal

template <typename Queue>
void AsetsStarPolicyT<Queue>::Bind(const SimView& v) {
  SchedulerPolicy::Bind(v);
  const size_t num_wf = v.workflows().num_workflows();
  states_.assign(num_wf, WorkflowState{});
  // All live sets share one flat arena (a workflow's live set can never
  // outgrow its member roster), so a cold Bind costs two allocations
  // instead of one per workflow — and a re-Bind to a same-shape view
  // costs none at all: assign() reuses capacity, as does every Reserve
  // below (pinned by tests/sim/allocation_test.cc).
  size_t total_members = 0;
  for (size_t wid = 0; wid < num_wf; ++wid) {
    states_[wid].live_begin = total_members;
    total_members +=
        v.workflows().workflow(static_cast<WorkflowId>(wid)).members.size();
  }
  live_arena_.assign(total_members, kInvalidTxn);
  dirty_.assign(num_wf, 0);
  dirty_list_.clear();
  dirty_list_.reserve(num_wf);
  dirty_now_ = 0.0;
  excluded_heads_.reserve(v.num_servers());
  edf_.Reserve(num_wf);
  hdf_.Reserve(num_wf);
  critical_.Reserve(num_wf);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::Reset() {
  states_.clear();
  live_arena_.clear();
  excluded_heads_.clear();
  dirty_.clear();
  dirty_list_.clear();
  dirty_now_ = 0.0;
  edf_.Clear();
  hdf_.Clear();
  critical_.Clear();
}

template <typename Queue>
bool AsetsStarPolicyT<Queue>::IsExcluded(TxnId id) const {
  return std::find(excluded_heads_.begin(), excluded_heads_.end(), id) !=
         excluded_heads_.end();
}

template <typename Queue>
bool AsetsStarPolicyT<Queue>::HeadBetter(TxnId a, TxnId b) const {
  if (b == kInvalidTxn) return true;
  const TransactionSpec& sa = view().specs()[a];
  const TransactionSpec& sb = view().specs()[b];
  switch (options_.head_rule) {
    case HeadSelectionRule::kEarliestDeadline:
      if (sa.deadline != sb.deadline) return sa.deadline < sb.deadline;
      break;
    case HeadSelectionRule::kShortestRemaining: {
      const SimTime ra = view().remaining(a);
      const SimTime rb = view().remaining(b);
      if (ra != rb) return ra < rb;
      break;
    }
    case HeadSelectionRule::kFifoArrival:
      if (sa.arrival != sb.arrival) return sa.arrival < sb.arrival;
      break;
  }
  return a < b;
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::AddLiveMember(WorkflowId wid, TxnId id) {
  WorkflowState& ws = states_[wid];
  TxnId* live = live_arena_.data() + ws.live_begin;
  WEBTX_DCHECK(std::find(live, live + ws.live_size, id) ==
               live + ws.live_size);
  if (ws.live_size == 0) {
    ws.rep_deadline = asets_star_internal::kInf;
    ws.rep_weight = 0.0;
  }
  live[ws.live_size++] = id;
  const TransactionSpec& spec = view().specs()[id];
  ws.rep_deadline = std::min(ws.rep_deadline, spec.deadline);
  ws.rep_weight = std::max(ws.rep_weight, spec.weight);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::RemoveLiveMember(WorkflowId wid, TxnId id) {
  WorkflowState& ws = states_[wid];
  TxnId* live = live_arena_.data() + ws.live_begin;
  TxnId* const end = live + ws.live_size;
  TxnId* const it = std::find(live, end, id);
  if (it == end) return;  // shed before it ever arrived
  *it = end[-1];
  --ws.live_size;
  // The departed member may have carried the min deadline or max weight;
  // re-derive both from the survivors (live sets are small).
  ws.rep_deadline = asets_star_internal::kInf;
  ws.rep_weight = 0.0;
  for (size_t i = 0; i < ws.live_size; ++i) {
    const TransactionSpec& spec = view().specs()[live[i]];
    ws.rep_deadline = std::min(ws.rep_deadline, spec.deadline);
    ws.rep_weight = std::max(ws.rep_weight, spec.weight);
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::Touch(WorkflowId wid, SimTime now) {
  WorkflowState& ws = states_[wid];
  // rep_remaining and the head must come from live values every time: the
  // simulator charges progress to outage-preempted transactions and
  // resets aborted ones without a policy callback, so a cached copy of
  // either would diverge from what a full rescan sees.
  SimTime rep_remaining = asets_star_internal::kInf;
  TxnId head = kInvalidTxn;
  const TxnId* live = live_arena_.data() + ws.live_begin;
  for (size_t i = 0; i < ws.live_size; ++i) {
    const TxnId m = live[i];
    rep_remaining = std::min(rep_remaining, view().remaining(m));
    if (view().IsReady(m) && !IsExcluded(m) && HeadBetter(m, head)) {
      head = m;
    }
  }
  ws.rep_remaining = rep_remaining;
  ws.head = head;
  ws.active = head != kInvalidTxn;

  if (!ws.active) {
    if (edf_.Erase(wid)) {
      critical_.Erase(wid);
    } else {
      hdf_.Erase(wid);
    }
    return;
  }
  if (TimeLessEq(now + ws.rep_remaining, ws.rep_deadline)) {
    if (edf_.Contains(wid)) {
      edf_.UpdateKeyIfChanged(wid, ws.rep_deadline);
      critical_.UpdateKeyIfChanged(wid, ws.rep_deadline - ws.rep_remaining);
    } else {
      hdf_.Erase(wid);
      edf_.Push(wid, ws.rep_deadline);
      critical_.Push(wid, ws.rep_deadline - ws.rep_remaining);
    }
  } else {
    if (hdf_.Contains(wid)) {
      hdf_.UpdateKeyIfChanged(wid, HdfKey(ws));
    } else {
      if (edf_.Erase(wid)) critical_.Erase(wid);
      hdf_.Push(wid, HdfKey(ws));
    }
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::MarkDirty(WorkflowId wid, SimTime now) {
  dirty_now_ = now;
  if (dirty_[wid]) return;
  dirty_[wid] = 1;
  dirty_list_.push_back(wid);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::MarkWorkflowsOf(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    MarkDirty(wid, now);
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::FlushDirty(SimTime now) {
  for (const WorkflowId wid : dirty_list_) {
    dirty_[wid] = 0;
    Touch(wid, now);
  }
  dirty_list_.clear();
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnArrival(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    AddLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnReady(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnCompletion(TxnId id, SimTime now) {
  // Real completions depart the live set; abort-dequeues (IsFinished
  // still false — the victim re-enters the ready set later) stay live so
  // they keep contributing to the representative, exactly as a full
  // rescan over arrived-and-unfinished members would see them. The
  // departure test runs NOW — the view's finished bit is only guaranteed
  // at callback time — but the refile itself is deferred to the flush.
  const bool departed = view().IsFinished(id);
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    if (departed) RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnRemainingUpdated(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnMigrated(TxnId id, SimTime now) {
  // Mid-workflow re-planning: a warm migration charges progress to the
  // victim (shrinking its remaining) with no other callback, and a cold
  // one resets it to the full estimate — either way every workflow the
  // victim represents must re-derive rep_remaining and its head from the
  // post-migration values before the scheduling round at the crash
  // instant, or the EDF-/HDF-list keys that decide the next pick would
  // reflect the pre-crash plan.
  MarkWorkflowsOf(id, now);
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::OnDropped(TxnId id, SimTime now) {
  // The dropped member is IsFinished from the view's perspective; evict
  // it from its workflows' live sets, representatives and heads.
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::MigrateDue(SimTime now) {
  while (!critical_.empty() && critical_.TopKey() < now - kTimeEpsilon) {
    const WorkflowId wid = critical_.Pop();
    const bool present = edf_.Erase(wid);
    WEBTX_DCHECK(present) << "critical queue out of sync with EDF-List";
    hdf_.Push(wid, HdfKey(states_[wid]));
  }
}

template <typename Queue>
TxnId AsetsStarPolicyT<Queue>::PickNext(SimTime now) {
  FlushDirty(now);
  MigrateDue(now);
  if (edf_.empty() && hdf_.empty()) return kInvalidTxn;
  if (edf_.empty()) return states_[hdf_.Top()].head;
  if (hdf_.empty()) return states_[edf_.Top()].head;

  const WorkflowState& we = states_[edf_.Top()];
  const WorkflowState& wh = states_[hdf_.Top()];
  const double r_head_e = view().remaining(we.head);
  const double r_head_h = view().remaining(wh.head);
  const double s_rep_e = we.rep_deadline - (now + we.rep_remaining);
  const double s_rep_h = wh.rep_deadline - (now + wh.rep_remaining);

  double impact_e;  // tardiness added to wh's representative by running we
  double impact_h;  // tardiness added to we's representative by running wh
  if (options_.impact.clamp_slack) {
    impact_e = std::max(0.0, r_head_e - std::max(0.0, s_rep_h)) * wh.rep_weight;
    impact_h = std::max(0.0, r_head_h - std::max(0.0, s_rep_e)) * we.rep_weight;
  } else {
    impact_e = (r_head_e - s_rep_h) * wh.rep_weight;
    impact_h = (r_head_h - s_rep_e) * we.rep_weight;
  }
  const bool run_edf = options_.impact.ties_to_edf ? impact_e <= impact_h
                                                   : impact_e < impact_h;
  return run_edf ? we.head : wh.head;
}

template <typename Queue>
TxnId AsetsStarPolicyT<Queue>::PickNextExcluding(
    SimTime now, const std::vector<TxnId>& exclude) {
  if (exclude.empty()) return PickNext(now);
  // Settle any pending callback marks with the exclusion set still empty
  // (matching the immediate-touch semantics those callbacks had), then
  // re-derive heads of the affected workflows with the exclusion set
  // active, decide, and restore the unexcluded view. The restore MUST
  // flush before returning: leaving it batched would refile those
  // workflows at a later event, after the simulator has charged progress
  // to their running members, with keys a rescan at `now` never sees.
  FlushDirty(now);
  excluded_heads_ = exclude;
  for (const TxnId id : exclude) MarkWorkflowsOf(id, now);
  const TxnId pick = PickNext(now);
  WEBTX_DCHECK(pick == kInvalidTxn || !IsExcluded(pick));
  excluded_heads_.clear();
  for (const TxnId id : exclude) MarkWorkflowsOf(id, now);
  FlushDirty(now);
  return pick;
}

template <typename Queue>
void AsetsStarPolicyT<Queue>::PickBatch(SimTime now, size_t k,
                                        std::vector<TxnId>& out) {
  // Each pick's workflows are parked once, when the pick joins the
  // exclusion set (the class comment shows why that files every workflow
  // as the greedy chain does). The last pick never joins: the chain
  // never excludes it, and a Touch re-reads live remaining times, so
  // refiling its workflows for it could move them where the chain leaves
  // them. The restore flushes before returning, for the reason
  // PickNextExcluding gives.
  out.clear();
  WEBTX_DCHECK(excluded_heads_.empty());
  for (size_t slot = 0; slot < k; ++slot) {
    const TxnId pick = PickNext(now);
    if (pick == kInvalidTxn) break;
    WEBTX_DCHECK(!IsExcluded(pick));
    out.push_back(pick);
    if (slot + 1 == k) break;  // no later slot to exclude it from
    excluded_heads_.push_back(pick);
    MarkWorkflowsOf(pick, now);
  }
  if (excluded_heads_.empty()) return;
  for (const TxnId id : excluded_heads_) MarkWorkflowsOf(id, now);
  excluded_heads_.clear();
  FlushDirty(now);
}

template <typename Queue>
typename AsetsStarPolicyT<Queue>::WorkflowSnapshot
AsetsStarPolicyT<Queue>::SnapshotOf(WorkflowId id) {
  FlushDirty(dirty_now_);
  const WorkflowState& ws = states_[id];
  return WorkflowSnapshot{ws.active, ws.head, ws.rep_deadline,
                          ws.rep_remaining, ws.rep_weight};
}

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICIES_ASETS_STAR_H_
