// Direct unit coverage of the multi-server PickNextExcluding hook: the
// policies must return their best admissible candidate and leave their
// internal queues exactly as they were. The PickBatch tests pin each
// batched round to the greedy PickNextExcluding chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sched/policies/asets.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/balance_aware.h"
#include "sched/policies/single_queue_policies.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::FakeView;
using testing::Txn;

TEST(PickExcludingTest, SingleQueueSkipsExcludedTops) {
  FakeView view({Txn(0, 0, 2, 10), Txn(1, 0, 2, 20), Txn(2, 0, 2, 30)});
  view.ArriveAll();
  EdfPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);

  EXPECT_EQ(policy.PickNextExcluding(0.0, {}), 0u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1}), 2u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1, 2}), kInvalidTxn);
  // Queue restored: the unexcluded pick is unchanged and sized right.
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.queue_size(), 3u);
}

TEST(PickExcludingTest, AsetsSkipsAcrossBothLists) {
  // T0 meets its deadline (EDF-List); T1 and T2 are tardy (HDF-List).
  FakeView view({Txn(0, 0, 2, 30), Txn(1, 0, 3, 1), Txn(2, 0, 5, 1)});
  view.ArriveAll();
  AsetsPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);
  const size_t edf_before = policy.edf_list_size();
  const size_t hdf_before = policy.hdf_list_size();

  const TxnId first = policy.PickNext(0.0);
  const TxnId second = policy.PickNextExcluding(0.0, {first});
  const TxnId third = policy.PickNextExcluding(0.0, {first, second});
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {first, second, third}),
            kInvalidTxn);
  // Lists restored.
  EXPECT_EQ(policy.edf_list_size(), edf_before);
  EXPECT_EQ(policy.hdf_list_size(), hdf_before);
  EXPECT_EQ(policy.PickNext(0.0), first);
}

TEST(PickExcludingTest, AsetsStarFallsBackToNextReadyMember) {
  // Diamond: T0 and T1 both ready in the workflow rooted at T2. With the
  // preferred head excluded, the other ready member must be offered.
  FakeView view({Txn(0, 0, 4, 10), Txn(1, 0, 4, 20),
                 Txn(2, 0, 2, 30, 1.0, {0, 1})});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) {
    policy.OnArrival(id, 0.0);
    if (view.IsReady(id)) policy.OnReady(id, 0.0);
  }
  EXPECT_EQ(policy.PickNext(0.0), 0u);  // earliest-deadline head
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1}), kInvalidTxn);
  // State restored: the preferred head is back.
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.SnapshotOf(0).head, 0u);
}

TEST(PickExcludingTest, AsetsStarPrefersOtherWorkflowOverWorseMember) {
  // Two workflows; excluding the top workflow's head should offer the
  // *other workflow's* head when it beats the top workflow's remaining
  // ready members — here each workflow has one ready member, so the
  // second pick must come from the other workflow.
  FakeView view({Txn(0, 0, 3, 10), Txn(1, 0, 3, 20)});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 2; ++id) {
    policy.OnArrival(id, 0.0);
    policy.OnReady(id, 0.0);
  }
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
}

// The batched round must equal the greedy PickNextExcluding chain pick
// for pick — the byte-identity contract the simulator's multi-server
// path leans on (sched/scheduler_policy.h).
TEST(PickBatchTest, SingleQueueBatchMatchesGreedyChainEveryK) {
  // Duplicate keys force the (key, id) tiebreak through both paths.
  FakeView view({Txn(0, 0, 2, 20), Txn(1, 0, 2, 10), Txn(2, 0, 2, 10),
                 Txn(3, 0, 2, 30), Txn(4, 0, 2, 20), Txn(5, 0, 2, 5)});
  view.ArriveAll();
  for (size_t k = 0; k <= 8; ++k) {
    EdfPolicy policy;
    policy.Bind(view);
    for (TxnId id = 0; id < 6; ++id) policy.OnReady(id, 0.0);

    std::vector<TxnId> greedy;
    for (size_t slot = 0; slot < k; ++slot) {
      const TxnId pick = policy.PickNextExcluding(0.0, greedy);
      if (pick == kInvalidTxn) break;
      greedy.push_back(pick);
    }
    std::vector<TxnId> batch;
    policy.PickBatch(0.0, k, batch);
    EXPECT_EQ(batch, greedy) << "k=" << k;
    // Queues restored bit for bit: the next round starts from scratch.
    EXPECT_EQ(policy.queue_size(), 6u);
    EXPECT_EQ(policy.PickNext(0.0), 5u);
  }
}

TEST(PickBatchTest, ShardedSingleQueueBatchMatchesGreedyChain) {
  FakeView view({Txn(0, 0, 2, 20), Txn(1, 0, 2, 10), Txn(2, 0, 2, 10),
                 Txn(3, 0, 2, 30), Txn(4, 0, 2, 20), Txn(5, 0, 2, 5)});
  view.ArriveAll();
  const auto make = [&view](SrptPolicy& policy) {
    policy.EnableSharded();
    policy.Bind(view);
    policy.BindShards(3);
    for (TxnId id = 0; id < 6; ++id) policy.OnReady(id, 0.0);
  };
  SrptPolicy greedy_policy;
  make(greedy_policy);
  SrptPolicy batch_policy;
  make(batch_policy);
  for (size_t k = 1; k <= 6; ++k) {
    std::vector<TxnId> greedy;
    for (size_t slot = 0; slot < k; ++slot) {
      const TxnId pick = greedy_policy.PickNextExcluding(0.0, greedy);
      if (pick == kInvalidTxn) break;
      greedy.push_back(pick);
    }
    std::vector<TxnId> batch;
    batch_policy.PickBatch(0.0, k, batch);
    EXPECT_EQ(batch, greedy) << "k=" << k;
  }
}

TEST(PickBatchTest, AsetsBatchMatchesGreedyChainAcrossBothLists) {
  // T0 meets its deadline (EDF-List); T1 and T2 are tardy (HDF-List),
  // so the batch's two-pointer walk must interleave the lists exactly
  // as the erase/re-push chain does.
  FakeView view({Txn(0, 0, 2, 30), Txn(1, 0, 3, 1), Txn(2, 0, 5, 1)});
  view.ArriveAll();
  AsetsPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);
  const size_t edf_before = policy.edf_list_size();
  const size_t hdf_before = policy.hdf_list_size();
  std::vector<TxnId> expected;
  for (size_t slot = 0; slot < 3; ++slot) {
    expected.push_back(policy.PickNextExcluding(0.0, expected));
  }
  std::vector<TxnId> batch;
  policy.PickBatch(0.0, 4, batch);  // k past the ready count stops early
  EXPECT_EQ(batch, expected);
  // The read-only walk left both lists untouched.
  EXPECT_EQ(policy.edf_list_size(), edf_before);
  EXPECT_EQ(policy.hdf_list_size(), hdf_before);
}

TEST(PickBatchTest, DefaultBatchDrivesOverriddenPickNextExcluding) {
  // Policies without a PickBatch override (BalanceAware here, which
  // overrides only PickNextExcluding) run the greedy chain literally —
  // the default is the chain, call by call, so the forced T_old
  // activation still decides slot 0 ahead of the wrapped ASETS*.
  FakeView view({Txn(0, 0, 4, 10), Txn(1, 0, 4, 20, 5.0),
                 Txn(2, 0, 2, 30, 1.0, {0, 1})});
  view.ArriveAll();
  const auto make = [&view]() {
    BalanceAwareOptions options;
    options.mode = ActivationMode::kTimeBased;
    options.rate = 0.01;  // due at t >= 100
    auto policy = std::make_unique<BalanceAwarePolicy>(
        std::make_unique<AsetsStarPolicy>(), options);
    policy->Bind(view);
    for (TxnId id = 0; id < 3; ++id) {
      policy->OnArrival(id, 0.0);
      if (view.IsReady(id)) policy->OnReady(id, 0.0);
    }
    return policy;
  };
  // Activation pacing is stateful, so the chain and the batch each run
  // on their own twin instance.
  auto greedy_policy = make();
  auto batch_policy = make();
  std::vector<TxnId> expected;
  for (size_t slot = 0; slot < 3; ++slot) {
    const TxnId pick = greedy_policy->PickNextExcluding(120.0, expected);
    if (pick == kInvalidTxn) break;
    expected.push_back(pick);
  }
  std::vector<TxnId> batch;
  batch_policy->PickBatch(120.0, 3, batch);
  EXPECT_EQ(batch, expected);
  // T_old (T1: weight 5, most weighted overdue) ahead of ASETS*'s head.
  EXPECT_EQ(batch, (std::vector<TxnId>{1, 0}));
  EXPECT_EQ(batch_policy->activation_count(), 1u);
}

// Randomized differential of the ASETS* batched round against the
// literal greedy PickNextExcluding chain, over multi-round runs where
// time advances, picks make progress and complete, successors become
// ready and late arrivals join. Each instance mixes shared members
// (one transaction in two workflows), workflows whose only ready member
// gets excluded, and EDF-List / HDF-List workflows; EDF workflows also
// go tardy between rounds, so MigrateDue can move them inside a round.
template <typename Policy>
class AsetsStarBatchDifferential {
 public:
  struct Coverage {
    size_t shared_members = 0;      // transactions in >= 2 workflows
    size_t sole_head_excluded = 0;  // workflow left with no ready head
    size_t both_lists = 0;          // rounds with EDF and HDF non-empty
    size_t rounds = 0;
  };

  static std::vector<TransactionSpec> Instance(uint64_t seed) {
    Rng rng(seed);
    const size_t n = 24 + rng.NextInRange(0, 16);
    std::vector<TransactionSpec> txns;
    for (size_t i = 0; i < n; ++i) {
      std::vector<TxnId> deps;
      // Up to two predecessors among the last few transactions: a
      // predecessor shared by two chains belongs to both workflows.
      const size_t num_deps = i == 0 ? 0 : rng.NextInRange(0, 2);
      for (size_t d = 0; d < num_deps; ++d) {
        const uint64_t lo = i > 6 ? i - 6 : 0;
        const auto dep = static_cast<TxnId>(rng.NextInRange(lo, i - 1));
        if (std::find(deps.begin(), deps.end(), dep) == deps.end()) {
          deps.push_back(dep);
        }
      }
      const auto length = static_cast<SimTime>(rng.NextInRange(1, 8));
      // Tight and loose deadlines: some workflows start tardy (HDF-List),
      // others feasible (EDF-List) and go tardy as time advances.
      const auto deadline = static_cast<SimTime>(rng.NextInRange(2, 60));
      const auto weight = static_cast<double>(rng.NextInRange(1, 5));
      txns.push_back(Txn(static_cast<TxnId>(i), 0, length, deadline, weight,
                         std::move(deps)));
    }
    return txns;
  }

  AsetsStarBatchDifferential(uint64_t seed, HeadSelectionRule rule)
      : view_(Instance(seed)), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
    AsetsStarOptions options;
    options.head_rule = rule;
    batch_ = std::make_unique<Policy>(options);
    greedy_ = std::make_unique<Policy>(options);
    batch_->Bind(view_);
    greedy_->Bind(view_);
    n_ = view_.specs().size();
    ready_.assign(n_, 0);
    // Two thirds arrive at t=0; the rest trickle in between rounds.
    for (TxnId id = 0; id < n_; ++id) {
      if (rng_.NextInRange(0, 2) != 0) Arrive(id);
    }
    AnnounceReady();
  }

  /// Runs up to `rounds` k-server rounds, asserting identical picks
  /// after each and identical policy state after every other one;
  /// returns what the run covered.
  Coverage Run(size_t k, size_t rounds) {
    Coverage coverage;
    const WorkflowRegistry& registry = view_.workflows();
    for (TxnId id = 0; id < n_; ++id) {
      if (registry.WorkflowsOf(id).size() >= 2) ++coverage.shared_members;
    }
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<TxnId> chain;
      for (size_t slot = 0; slot < k; ++slot) {
        const TxnId pick = greedy_->PickNextExcluding(now_, chain);
        if (pick == kInvalidTxn) break;
        chain.push_back(pick);
      }
      std::vector<TxnId> batch;
      batch_->PickBatch(now_, k, batch);
      EXPECT_EQ(batch, chain) << "round " << round << " t=" << now_;
      if (::testing::Test::HasFailure()) return coverage;
      ++coverage.rounds;
      coverage.sole_head_excluded += SoleHeadsExcluded(chain, k);

      // The state probes flush pending marks at the round's instant, so
      // they run on every other round only: in between, a refile the
      // batch wrongly left pending is carried into the next round, where
      // silently charged progress (see Advance) exposes it.
      if (round % 2 == 0) {
        for (WorkflowId w = 0; w < registry.num_workflows(); ++w) {
          const auto a = batch_->SnapshotOf(w);
          const auto b = greedy_->SnapshotOf(w);
          EXPECT_EQ(a.active, b.active) << "wf " << w;
          EXPECT_EQ(a.head, b.head) << "wf " << w;
          EXPECT_EQ(a.rep_deadline, b.rep_deadline) << "wf " << w;
          EXPECT_EQ(a.rep_remaining, b.rep_remaining) << "wf " << w;
          EXPECT_EQ(a.rep_weight, b.rep_weight) << "wf " << w;
        }
        const size_t edf = batch_->edf_list_size();
        const size_t hdf = batch_->hdf_list_size();
        EXPECT_EQ(edf, greedy_->edf_list_size());
        EXPECT_EQ(hdf, greedy_->hdf_list_size());
        if (edf > 0 && hdf > 0) ++coverage.both_lists;
        if (::testing::Test::HasFailure()) return coverage;
      }
      if (chain.empty() && arrived_all_) break;
      Advance(chain);
    }
    return coverage;
  }

 private:
  void Arrive(TxnId id) {
    view_.Arrive(id);
    batch_->OnArrival(id, now_);
    greedy_->OnArrival(id, now_);
  }

  /// Delivers OnReady for every transaction that became ready.
  void AnnounceReady() {
    view_.RebuildReadyList();
    for (TxnId id = 0; id < n_; ++id) {
      if (ready_[id] || !view_.IsReady(id)) continue;
      ready_[id] = 1;
      batch_->OnReady(id, now_);
      greedy_->OnReady(id, now_);
    }
  }

  /// Runs the picks for a random slice of time: each makes progress and
  /// completes if its remaining time runs out; some late arrivals join.
  /// Like the simulator's outage preemptions, some progress is charged
  /// without an OnRemainingUpdated callback.
  void Advance(const std::vector<TxnId>& running) {
    const SimTime slice = 0.5 * static_cast<double>(rng_.NextInRange(1, 6));
    now_ += slice;
    for (const TxnId id : running) {
      const SimTime left = view_.remaining(id) - slice;
      if (left <= 0.0) {
        view_.Finish(id);
        ready_[id] = 0;
        batch_->OnCompletion(id, now_);
        greedy_->OnCompletion(id, now_);
      } else {
        view_.SetRemaining(id, left);
        if (rng_.NextInRange(0, 2) == 0) continue;  // silent progress
        batch_->OnRemainingUpdated(id, now_);
        greedy_->OnRemainingUpdated(id, now_);
      }
    }
    arrived_all_ = true;
    for (TxnId id = 0; id < n_; ++id) {
      if (view_.IsArrived(id)) continue;
      if (rng_.NextInRange(0, 3) == 0) {
        Arrive(id);
      } else {
        arrived_all_ = false;
      }
    }
    AnnounceReady();
  }

  /// Workflows of a pick excluded at a later slot whose only ready
  /// members were all excluded (picks that never meet a later slot are
  /// never excluded).
  size_t SoleHeadsExcluded(const std::vector<TxnId>& picks, size_t k) const {
    const size_t excluded = std::min(picks.size(), k - 1);
    size_t count = 0;
    for (size_t p = 0; p < excluded; ++p) {
      for (const WorkflowId w : view_.workflows().WorkflowsOf(picks[p])) {
        bool has_head = false;
        for (const TxnId m : view_.workflows().workflow(w).members) {
          if (view_.IsReady(m) && std::find(picks.begin(),
                                            picks.begin() + excluded,
                                            m) == picks.begin() + excluded) {
            has_head = true;
          }
        }
        if (!has_head) ++count;
      }
    }
    return count;
  }

  FakeView view_;
  Rng rng_;
  std::unique_ptr<Policy> batch_;
  std::unique_ptr<Policy> greedy_;
  size_t n_ = 0;
  std::vector<char> ready_;
  SimTime now_ = 0.0;
  bool arrived_all_ = false;
};

template <typename Policy>
void ExpectBatchMatchesGreedyChain() {
  using Differential = AsetsStarBatchDifferential<Policy>;
  typename Differential::Coverage total;
  for (const HeadSelectionRule rule :
       {HeadSelectionRule::kEarliestDeadline,
        HeadSelectionRule::kShortestRemaining,
        HeadSelectionRule::kFifoArrival}) {
    for (size_t k = 1; k <= 8; ++k) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "rule " << static_cast<int>(rule) << " k=" << k
                     << " seed " << seed);
        Differential differential(seed * 131 + k, rule);
        const auto coverage = differential.Run(k, /*rounds=*/40);
        if (::testing::Test::HasFailure()) return;
        total.shared_members += coverage.shared_members;
        total.sole_head_excluded += coverage.sole_head_excluded;
        total.both_lists += coverage.both_lists;
        total.rounds += coverage.rounds;
      }
    }
  }
  // The instances really exercise the cases the batch must get right.
  EXPECT_GT(total.shared_members, 0u);
  EXPECT_GT(total.sole_head_excluded, 0u);
  EXPECT_GT(total.both_lists, 0u);
  EXPECT_GT(total.rounds, 1000u);
}

TEST(PickBatchTest, AsetsStarBatchMatchesGreedyChain) {
  {
    SCOPED_TRACE("ASETS*");
    ExpectBatchMatchesGreedyChain<AsetsStarPolicy>();
  }
  {
    SCOPED_TRACE("ASETS*-lazy");
    ExpectBatchMatchesGreedyChain<AsetsStarLazyPolicy>();
  }
}

TEST(PickBatchTest, RemainingUpdateInterestMatchesKeySensitivity) {
  // FCFS/EDF/HVF keys ignore remaining time, so the simulator may skip
  // their OnRemainingUpdated calls; SRPT/LS/HDF need them.
  EXPECT_FALSE(FcfsPolicy().WantsRemainingUpdates());
  EXPECT_FALSE(EdfPolicy().WantsRemainingUpdates());
  EXPECT_FALSE(HvfPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(SrptPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(LsPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(HdfPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(AsetsPolicy().WantsRemainingUpdates());
}

TEST(PickExcludingDeathTest, BaseImplementationRejectsExclusion) {
  // A policy that does not override the hook only supports k = 1.
  class MinimalPolicy final : public SchedulerPolicy {
   public:
    std::string name() const override { return "Minimal"; }
    void OnReady(TxnId, SimTime) override {}
    void OnCompletion(TxnId, SimTime) override {}
    TxnId PickNext(SimTime) override { return kInvalidTxn; }

   protected:
    void Reset() override {}
  };
  FakeView view({Txn(0, 0, 1, 10)});
  view.ArriveAll();
  MinimalPolicy policy;
  policy.Bind(view);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {}), kInvalidTxn);
  EXPECT_DEATH((void)policy.PickNextExcluding(0.0, {0}),
               "does not support multi-server");
}

}  // namespace
}  // namespace webtx
