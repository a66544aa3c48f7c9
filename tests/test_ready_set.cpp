// sim::ReadySet against a std::vector model: seeded sequences of push,
// erase, compaction and reads, in both removal modes and across the switch
// between them. After every step the live members (read from a copy, so
// the check never switches the set under test to in-place removal) and
// every tail read a policy could make must equal the model.
#include "sim/ready_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace apt {
namespace {

std::vector<dag::NodeId> to_vector(sim::ReadyRange range) {
  return {range.begin(), range.end()};
}

/// The set under test, its model, and what a reader may read from the
/// tail: the members pushed since the last erase, or every suffix once the
/// set removes in place.
class Harness {
 public:
  explicit Harness(std::size_t slots) { set_.resize(slots); }

  void push(dag::NodeId node) {
    set_.push_back(node);
    model_.push_back(node);
    ++fresh_;
    check("push " + std::to_string(node));
  }

  void erase(dag::NodeId node) {
    set_.erase(node);
    model_.erase(std::find(model_.begin(), model_.end(), node));
    fresh_ = 0;
    check("erase " + std::to_string(node));
  }

  /// What the event core does between policy passes.
  void compact_if_due() {
    if (set_.compaction_due()) set_.compact();
    EXPECT_FALSE(set_.compaction_due());
    check("compact");
  }

  /// A compaction whether or not it is due.
  void compact() {
    set_.compact();
    EXPECT_FALSE(set_.compaction_due());
    check("forced compact");
  }

  /// A whole-set read: switches the set to in-place removal for good.
  void read_all() {
    EXPECT_EQ(set_.nodes(), model_);
    in_place_ = true;
    check("read");
  }

  bool contains(dag::NodeId node) const {
    return std::find(model_.begin(), model_.end(), node) != model_.end();
  }
  const std::vector<dag::NodeId>& model() const { return model_; }
  const sim::ReadySet& set() const { return set_; }

 private:
  void check(const std::string& step) {
    ASSERT_EQ(set_.size(), model_.size()) << step;
    sim::ReadySet probe = set_;
    ASSERT_EQ(probe.nodes(), model_) << step;
    const std::size_t readable = in_place_ ? model_.size() : fresh_;
    for (std::size_t k = 0; k <= readable; ++k) {
      const std::size_t first = model_.size() - k;
      ASSERT_EQ(to_vector(set_.tail(first)),
                std::vector<dag::NodeId>(model_.begin() + first, model_.end()))
          << step << ", tail from " << first;
    }
  }

  sim::ReadySet set_;
  std::vector<dag::NodeId> model_;
  std::size_t fresh_ = 0;
  bool in_place_ = false;
};

/// Random pushes and erases over a small pool of slot ids, so ids come back
/// while their dead entries are still in the log. Two kinds of step recycle
/// on purpose: one erases a member and pushes it again behind its own
/// tombstone, then compacts; the other erases two members, pushes one back,
/// compacts, and pushes the other, so recycled ids interleave across a
/// compaction. `switch_at` is the step of the first whole-set read (0:
/// before the first step; past the end: never).
void random_walk(std::uint64_t seed, std::size_t steps, std::size_t switch_at) {
  constexpr std::size_t kSlots = 24;
  util::Rng rng(seed);
  Harness h(kSlots);
  for (std::size_t step = 0; step < steps; ++step) {
    if (step == switch_at) h.read_all();
    const std::uint64_t roll = rng.uniform_u64(12);
    const std::size_t n = h.model().size();
    if (roll < 5) {
      const auto node = static_cast<dag::NodeId>(rng.uniform_u64(kSlots));
      if (!h.contains(node)) h.push(node);
    } else if (roll < 9) {
      if (n == 0) continue;
      // Erase the front, the back, the entry just before the back (a
      // tombstone the next erase of the back drops), or anything between.
      const std::uint64_t where = rng.uniform_u64(4);
      const std::size_t i = where == 0   ? 0
                            : where == 1 ? n - 1
                            : where == 2 ? (n > 1 ? n - 2 : 0)
                                         : rng.uniform_u64(n);
      h.erase(h.model()[i]);
    } else if (roll == 9) {
      if (n == 0) continue;
      const dag::NodeId node = h.model()[rng.uniform_u64(n)];
      h.erase(node);
      h.push(node);
      h.compact();
    } else if (roll == 10) {
      if (n < 2) continue;
      const std::size_t i = rng.uniform_u64(n);
      const std::size_t j = (i + 1 + rng.uniform_u64(n - 1)) % n;
      const dag::NodeId first = h.model()[i];
      const dag::NodeId second = h.model()[j];
      h.erase(first);
      h.erase(second);
      h.push(second);
      h.compact();
      h.push(first);
    } else {
      h.compact_if_due();
    }
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << ", step " << step;
      return;
    }
  }
}

TEST(ReadySet, EmptySet) {
  sim::ReadySet set;
  set.resize(4);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.tail(0).size(), 0u);
  EXPECT_FALSE(set.compaction_due());
  set.compact();
  EXPECT_EQ(set.compactions(), 0u);
  EXPECT_TRUE(set.nodes().empty());
  EXPECT_EQ(set.tail(0).size(), 0u);
}

TEST(ReadySet, ErasingTheBackDropsItAndTheDeadBehindIt) {
  Harness h(8);
  for (dag::NodeId n = 0; n < 4; ++n) h.push(n);
  h.erase(1);  // a tombstone
  h.erase(3);  // the back: dropped
  h.erase(2);  // the back again, then the tombstone behind it
  EXPECT_FALSE(h.set().compaction_due());
  h.compact_if_due();
  EXPECT_EQ(h.set().compactions(), 0u);
  EXPECT_EQ(h.set().entries_moved(), 0u);
  h.push(5);
  h.read_all();
}

TEST(ReadySet, ErasingTheFrontCompactsOnceTheDeadOutnumberTheLive) {
  Harness h(8);
  for (dag::NodeId n = 0; n < 5; ++n) h.push(n);
  h.erase(0);
  h.erase(1);
  EXPECT_FALSE(h.set().compaction_due());  // 2 dead, 3 live
  h.erase(2);
  EXPECT_TRUE(h.set().compaction_due());  // 3 dead, 2 live
  h.compact_if_due();
  EXPECT_EQ(h.set().compactions(), 1u);
  EXPECT_EQ(h.set().entries_moved(), 2u);  // 3 and 4 moved to the front
  h.push(6);
  h.erase(3);
  h.compact_if_due();
  h.read_all();
}

TEST(ReadySet, InPlaceRemovalShiftsTheEntriesBehind) {
  Harness h(8);
  h.read_all();
  for (dag::NodeId n = 0; n < 5; ++n) h.push(n);
  h.erase(1);  // shifts 2, 3, 4
  h.erase(4);  // the back: shifts nothing
  h.erase(0);  // shifts 2, 3
  EXPECT_EQ(h.set().entries_moved(), 5u);
  EXPECT_EQ(h.set().compactions(), 0u);
  EXPECT_FALSE(h.set().compaction_due());
}

TEST(ReadySet, TheFirstWholeReadCompactsAndSwitches) {
  Harness h(8);
  for (dag::NodeId n = 0; n < 4; ++n) h.push(n);
  h.erase(0);
  h.read_all();  // squeezes out the tombstone of 0
  EXPECT_EQ(h.set().compactions(), 1u);
  EXPECT_EQ(h.set().entries_moved(), 3u);
  h.erase(1);  // now in place: shifts 2 and 3
  EXPECT_EQ(h.set().entries_moved(), 5u);
  h.read_all();
  EXPECT_EQ(h.set().compactions(), 1u);
}

TEST(ReadySet, ARecycledSlotIsNotRevivedByItsDeadEntry) {
  // A stream engine pushes a slot id again once its instance retired; the
  // id's earlier entry may still sit in the log as a tombstone.
  Harness h(4);
  h.push(0);
  h.push(1);
  h.push(2);
  h.erase(0);  // tombstone at the front
  h.push(0);   // the same id, a new entry at the back
  h.erase(1);
  h.compact_if_due();
  h.erase(0);  // the live entry, now at the back
  h.push(0);
  h.push(3);
  h.erase(2);
  h.erase(0);  // a second tombstone of id 0, behind the first's position
  h.compact_if_due();
  h.read_all();
}

TEST(ReadySet, RandomSequencesInTombstoneMode) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    random_walk(seed, 400, static_cast<std::size_t>(-1));
}

TEST(ReadySet, RandomSequencesInPlace) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) random_walk(seed, 400, 0);
}

TEST(ReadySet, RandomSequencesAcrossTheSwitch) {
  util::Rng pick(99);
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    random_walk(seed, 400, 1 + pick.uniform_u64(398));
}

}  // namespace
}  // namespace apt
