/**
 * @file
 * Tests for the accelerator's exactly-once replay window: verdict
 * state machine, per-client FIFO eviction, wraparound behaviour of a
 * tiny window, a differential test against the previous map+deque
 * window (replay_window_reference.h) over seeded random operation
 * sequences, and cluster-level exactly-once CAS execution under
 * fault-injected duplication with a window small enough to evict
 * mid-run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "accel/replay_window.h"
#include "check/fuzzer.h"
#include "core/cluster.h"
#include "isa/program.h"
#include "replay_window_reference.h"

namespace pulse::accel {
namespace {

ReplayWindow::Key
key(ClientId client, std::uint64_t seq, std::uint64_t visit = 0)
{
    return {{client, seq}, visit};
}

net::TraversalPacket
response_for(const ReplayWindow::Key& k)
{
    net::TraversalPacket packet;
    packet.id = k.id;
    packet.is_response = true;
    packet.iterations_done = k.visit + 1;
    return packet;
}

TEST(ReplayWindow, VerdictStateMachine)
{
    ReplayWindow window(4);
    const auto k = key(0, 1);

    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    window.claim(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kInProgress);
    EXPECT_FALSE(window.cached_response(k).has_value());

    window.record_response(k, response_for(k));
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kCached);
    const std::optional<net::TraversalPacket> cached =
        window.cached_response(k);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(cached->id, k.id);
    EXPECT_TRUE(cached->is_response);
}

TEST(ReplayWindow, UnmarkAllowsReexecution)
{
    // Admission-queue overflow path: the packet never executed, so a
    // retransmit must be allowed to run later.
    ReplayWindow window(4);
    const auto k = key(1, 7);
    window.claim(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kInProgress);
    window.unmark(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    EXPECT_EQ(window.size(), 0u);
}

TEST(ReplayWindow, ForgetDropsCompletedEntries)
{
    // A cached zero-progress kNotLocal bounce must be droppable even
    // though it is done: if the node has become the owner since (slab
    // migrated here, or the entry arrived via a cutover handoff),
    // replaying the bounce would ping-pong the packet between switch
    // and accelerator forever — the accelerator forgets the entry and
    // re-executes the visit under current routes instead.
    ReplayWindow window(4);
    const auto k = key(2, 3);
    window.claim(k);
    net::TraversalPacket bounce = response_for(k);
    bounce.status = isa::TraversalStatus::kNotLocal;
    bounce.iterations_done = k.visit;  // no iteration ran
    window.record_response(k, bounce);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kCached);

    window.forget(k);
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
    EXPECT_EQ(window.size(), 0u);
    window.forget(k);  // idempotent on a missing key
    EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
}

TEST(ReplayWindow, DistinctVisitsAreDistinctKeys)
{
    // A multi-hop traversal legitimately revisits a node with a larger
    // iterations_done; only byte-identical duplicates may collide.
    ReplayWindow window(8);
    const auto v0 = key(0, 5, 0);
    const auto v3 = key(0, 5, 3);
    window.claim(v0);
    window.record_response(v0, response_for(v0));
    EXPECT_EQ(window.classify(v0), ReplayWindow::Verdict::kCached);
    EXPECT_EQ(window.classify(v3), ReplayWindow::Verdict::kNew);
}

TEST(ReplayWindow, FifoEvictionWrapsPerClient)
{
    ReplayWindow window(/*per_client_entries=*/3);
    // Fill client 0's budget, then keep inserting: the oldest entry
    // must fall out each time (wraparound), newest three retained.
    for (std::uint64_t seq = 0; seq < 10; seq++) {
        const auto k = key(0, seq);
        EXPECT_EQ(window.classify(k), ReplayWindow::Verdict::kNew);
        window.claim(k);
        window.record_response(k, response_for(k));
    }
    EXPECT_EQ(window.size(), 3u);
    // 7, 8, 9 survive; everything older reads as new again.
    for (std::uint64_t seq = 0; seq < 7; seq++) {
        EXPECT_EQ(window.classify(key(0, seq)),
                  ReplayWindow::Verdict::kNew);
    }
    for (std::uint64_t seq = 7; seq < 10; seq++) {
        EXPECT_EQ(window.classify(key(0, seq)),
                  ReplayWindow::Verdict::kCached);
    }

    // Budgets are per client: client 1 inserts never evict client 0.
    for (std::uint64_t seq = 0; seq < 3; seq++) {
        const auto k = key(1, seq);
        window.claim(k);
        window.record_response(k, response_for(k));
    }
    EXPECT_EQ(window.size(), 6u);
    EXPECT_EQ(window.classify(key(0, 9)),
              ReplayWindow::Verdict::kCached);
}

TEST(ReplayWindow, NewVisitCostsTwoProbes)
{
    ReplayWindow window(/*per_client_entries=*/1);
    const auto a = key(0, 1);
    const auto b = key(0, 2);
    // Arrival (claim) and completion (record_response): one lookup each.
    std::uint64_t before = window.probes();
    ASSERT_EQ(window.claim(a).verdict, ReplayWindow::Verdict::kNew);
    window.record_response(a, response_for(a));
    EXPECT_EQ(window.probes(), before + 2);
    EXPECT_EQ(window.classify(a), ReplayWindow::Verdict::kCached);

    // b evicts a and takes over its slot: recording a is a no-op that
    // leaves b in progress.
    window.claim(b);
    before = window.probes();
    window.record_response(a, response_for(a));
    EXPECT_EQ(window.probes(), before + 1);
    EXPECT_EQ(window.classify(b), ReplayWindow::Verdict::kInProgress);
    EXPECT_FALSE(window.cached_response(a).has_value());
}

TEST(ReplayWindow, CopiesOnlyTheUsedBytes)
{
    ReplayWindow window(4);
    const auto k = key(0, 1);
    net::TraversalPacket response = response_for(k);
    response.scratch.assign(40, 0xab);
    isa::SpawnRecord record;
    record.start_ptr = 0x1000;
    response.spawns.push(record);
    response.spawn_depth = 2;
    response.parent_id = {0, 9};
    response.branch_index = 3;
    window.claim(k);
    window.record_response(k, response);
    // Header, 40 scratch bytes, one spawn record, and the 6-byte gap
    // before and the 32-byte lineage tail after the spawn list.
    EXPECT_EQ(window.copy_bytes(),
              104u + 40u + sizeof(isa::SpawnRecord) + 6u + 32u);
    EXPECT_LT(window.copy_bytes(), sizeof(net::TraversalPacket) / 2);
    const std::optional<net::TraversalPacket> cached =
        window.cached_response(k);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(cached->scratch == response.scratch);
    EXPECT_TRUE(cached->spawns == response.spawns);
    EXPECT_EQ(cached->spawn_depth, 2u);
    EXPECT_EQ(cached->parent_id, response.parent_id);
    EXPECT_EQ(cached->branch_index, 3u);
}

/** A response with @p scratch_bytes of scratch pad and @p spawns
 *  spawn records, its bytes derived from @p k. */
net::TraversalPacket
sized_response(const ReplayWindow::Key& k, std::size_t scratch_bytes,
               std::size_t spawns)
{
    net::TraversalPacket response = response_for(k);
    response.cur_ptr = 0x1000 + k.id.seq;
    for (std::size_t i = 0; i < scratch_bytes; i++) {
        response.scratch.push_back(static_cast<std::uint8_t>(k.id.seq + i));
    }
    for (std::size_t i = 0; i < spawns; i++) {
        isa::SpawnRecord record;
        record.start_ptr = 0x2000 + i;
        record.arg_length = 8;
        record.args[0] = static_cast<std::uint8_t>(k.id.seq);
        response.spawns.push(record);
    }
    response.parent_id = {k.id.client, k.id.seq + 100};
    response.branch_index = 1;
    return response;
}

TEST(ReplayWindow, WiderResponseReLaysTheRingOut)
{
    ReplayWindow window(/*per_client_entries=*/8);
    // Four 238-byte responses (tsv's size): a 256-byte stride.
    std::vector<net::TraversalPacket> recorded;
    for (std::uint64_t seq = 0; seq < 4; seq++) {
        const auto k = key(0, seq);
        window.claim(k);
        recorded.push_back(sized_response(k, 96, 0));
        window.record_response(k, recorded.back());
    }
    window.claim(key(0, 4));  // in progress across the re-layout
    EXPECT_EQ(window.stride_bytes(), 256u);
    const std::uint64_t allocations = window.allocations();

    // One with all 8 spawn records needs 622 bytes: the ring is laid
    // out again, once, at a 640-byte stride.
    const auto wide = key(0, 5);
    window.claim(wide);
    recorded.push_back(sized_response(wide, 96, net::SpawnList::kCapacity));
    window.record_response(wide, recorded.back());
    EXPECT_EQ(window.stride_bytes(), 640u);
    EXPECT_EQ(window.allocations(), allocations + 1);
    EXPECT_EQ(window.classify(key(0, 4)),
              ReplayWindow::Verdict::kInProgress);

    // Every entry, cached before the re-layout or after, replays the
    // bytes copy_used() would copy from the recorded packet.
    for (const net::TraversalPacket& original : recorded) {
        const auto k = key(0, original.id.seq);
        const ReplayWindow::Claim claimed = window.claim(k);
        ASSERT_EQ(claimed.verdict, ReplayWindow::Verdict::kCached);
        net::TraversalPacket replayed;
        net::TraversalPacket expected;
        window.copy_response(claimed.ticket, replayed);
        net::copy_used(expected, original);
        EXPECT_EQ(std::memcmp(&replayed, &expected, sizeof replayed), 0)
            << "seq " << k.id.seq;
    }
    // A narrower response later keeps the wide stride.
    const auto narrow = key(0, 6);
    window.claim(narrow);
    window.record_response(narrow, sized_response(narrow, 0, 0));
    EXPECT_EQ(window.stride_bytes(), 640u);
    EXPECT_EQ(window.allocations(), allocations + 1);
}

TEST(ReplayWindow, StorageAllocatesOncePerClient)
{
    ReplayWindow window(/*per_client_entries=*/8);
    window.claim(key(0, 0));
    window.claim(key(1, 0));
    const std::uint64_t allocations = window.allocations();
    EXPECT_GT(allocations, 0u);
    // Churn far past the budget, with holes from unmark and forget.
    for (std::uint64_t seq = 1; seq < 2000; seq++) {
        for (ClientId client = 0; client < 2; client++) {
            const auto k = key(client, seq);
            window.claim(k);
            if (seq % 7 == 0) {
                window.unmark(k);
            } else {
                window.record_response(k, response_for(k));
            }
            if (seq % 11 == 0) {
                window.forget(key(client, seq - 3));
            }
        }
    }
    EXPECT_EQ(window.allocations(), allocations);
    EXPECT_LE(window.size(), 16u);
}

// ---------------------------------------------------------------------
// Differential test: the flat window against the map+deque reference
// ---------------------------------------------------------------------

/**
 * Drives accel::ReplayWindow and reference::ReplayWindow with the same
 * seeded random operations over three windows each (absorb_from needs
 * donors) and reports the first divergence. The accelerator's
 * re-execution of a cached zero-progress bounce (restart) is checked
 * against the reference's forget + mark_in_progress.
 */
class Differential
{
  public:
    static constexpr std::size_t kWindows = 3;

    Differential(std::size_t budget, ClientId clients, std::uint64_t seed)
        : clients_(clients),
          seqs_(std::min<std::uint64_t>(budget, 8) * 3 + 2), rng_(seed)
    {
        for (std::size_t i = 0; i < kWindows; i++) {
            windows_.push_back(std::make_unique<ReplayWindow>(budget));
            refs_.push_back(
                std::make_unique<reference::ReplayWindow>(budget));
        }
    }

    /** Run @p steps random operations; "" or the first divergence. */
    std::string
    run(int steps)
    {
        for (step_ = 0; step_ < steps; step_++) {
            const std::size_t w = pick(kWindows);
            const ReplayWindow::Key k = random_key();
            std::string error = apply(pick(9), w, k);
            if (error.empty()) {
                error = compare_key(k);
            }
            if (error.empty() && step_ % 97 == 0) {
                error = compare_all();
            }
            if (!error.empty()) {
                return "step " + std::to_string(step_) + ": " + error;
            }
        }
        return compare_all();
    }

  private:
    using Verdict = ReplayWindow::Verdict;

    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

    ReplayWindow::Key
    random_key()
    {
        return {{static_cast<ClientId>(pick(clients_)), pick(seqs_)},
                pick(3)};
    }

    static reference::ReplayWindow::Key
    ref_key(const ReplayWindow::Key& k)
    {
        return {k.id, k.visit};
    }

    static Verdict
    from_ref(reference::ReplayWindow::Verdict v)
    {
        return static_cast<Verdict>(static_cast<int>(v));
    }

    static bool
    is_bounce(const net::TraversalPacket& response,
              const ReplayWindow::Key& k)
    {
        return response.status == isa::TraversalStatus::kNotLocal &&
               response.iterations_done == k.visit;
    }

    /** A response with random used sizes; a third are zero-progress
     *  kNotLocal bounces. */
    net::TraversalPacket
    random_response(const ReplayWindow::Key& k)
    {
        net::TraversalPacket p;
        p.id = k.id;
        p.origin = k.id.client;
        p.tenant = static_cast<std::uint32_t>(pick(4));
        p.is_response = true;
        const bool bounce = pick(3) == 0;
        p.status = bounce ? isa::TraversalStatus::kNotLocal
                          : isa::TraversalStatus::kDone;
        p.iterations_done = bounce ? k.visit : k.visit + 1 + pick(4);
        p.cur_ptr = rng_();
        p.visit_echo = pick(100);
        p.checksum = rng_();
        p.scratch.resize(pick(kScratchCapacity + 1));
        for (std::uint8_t& byte : p.scratch) {
            byte = static_cast<std::uint8_t>(rng_());
        }
        const std::uint64_t spawns = pick(net::SpawnList::kCapacity + 1);
        for (std::uint64_t i = 0; i < spawns; i++) {
            isa::SpawnRecord record;
            record.start_ptr = rng_();
            record.arg_length =
                static_cast<std::uint16_t>(pick(isa::kSpawnArgBytes + 1));
            for (std::uint8_t& byte : record.args) {
                byte = static_cast<std::uint8_t>(rng_());
            }
            p.spawns.push(record);
        }
        p.spawn_depth = static_cast<std::uint32_t>(pick(3));
        p.parent_id = {k.id.client, pick(50)};
        p.branch_index = static_cast<std::uint32_t>(pick(8));
        return p;
    }

    std::string
    apply(std::uint64_t op, std::size_t w, const ReplayWindow::Key& k)
    {
        ReplayWindow& window = *windows_[w];
        reference::ReplayWindow& ref = *refs_[w];
        const auto rk = ref_key(k);
        const Verdict before = from_ref(ref.classify(rk));
        std::ostringstream error;
        switch (op) {
          case 0: {  // mark
            ref.mark_in_progress(rk);
            if (window.claim(k).verdict != before) {
                error << "claim verdict differs";
            }
            break;
          }
          case 1: {  // record
            const net::TraversalPacket response = random_response(k);
            ref.record_response(rk, response);
            window.record_response(k, response);
            break;
          }
          case 2:  // unmark
            ref.unmark(rk);
            if (window.unmark(k) != (before == Verdict::kInProgress)) {
                error << "unmark result differs";
            }
            break;
          case 3:  // forget
            ref.forget(rk);
            window.forget(k);
            break;
          case 4: {  // absorb_from
            const std::size_t donor =
                (w + 1 + pick(kWindows - 1)) % kWindows;
            const std::size_t expected = ref.absorb_from(*refs_[donor]);
            const std::size_t copied =
                window.absorb_from(*windows_[donor]);
            if (copied != expected) {
                error << "absorb_from copied " << copied << ", reference "
                      << expected;
            }
            break;
          }
          case 5: {  // import_completion
            const net::TraversalPacket response = random_response(k);
            ref.import_completion(rk, response);
            if (window.import_completion(k, response) !=
                (before == Verdict::kInProgress)) {
                error << "import_completion result differs";
            }
            break;
          }
          case 6:  // consume_handoff
            if (ref.consume_handoff(rk) != window.consume_handoff(k)) {
                error << "consume_handoff differs";
            }
            break;
          case 7:  // classify (compare_key checks every window)
            break;
          default: {  // the accelerator's arrival path
            const net::TraversalPacket* cached = ref.cached_response(rk);
            const bool bounce = cached != nullptr && is_bounce(*cached, k);
            if (before == Verdict::kNew) {
                ref.mark_in_progress(rk);
            } else if (bounce) {
                ref.forget(rk);
                ref.mark_in_progress(rk);
            }
            const ReplayWindow::Claim claimed = window.claim(k);
            if (claimed.verdict != before) {
                error << "arrival verdict differs";
            } else if (before == Verdict::kCached) {
                if (window.cached_bounce(claimed.ticket) != bounce) {
                    error << "cached_bounce differs";
                } else if (bounce) {
                    window.restart(claimed.ticket);
                } else {
                    net::TraversalPacket replay = random_response(k);
                    window.copy_response(claimed.ticket, replay);
                    error << diff_response(cached, &replay);
                }
            }
            break;
          }
        }
        if (!error.str().empty()) {
            error << " (op " << op << ", window " << w << ", key "
                  << k.id.client << "/" << k.id.seq << "/" << k.visit
                  << ")";
        }
        return error.str();
    }

    /** "" when @p a and @p b agree on every byte a packet uses. */
    static std::string
    diff_response(const net::TraversalPacket* a,
                  const net::TraversalPacket* b)
    {
        if ((a == nullptr) != (b == nullptr)) {
            return "cached response present in one window only";
        }
        if (a == nullptr) {
            return "";
        }
        if (std::memcmp(a, b, offsetof(net::TraversalPacket, scratch)) !=
                0 ||
            !(a->scratch == b->scratch) || !(a->spawns == b->spawns) ||
            a->spawn_depth != b->spawn_depth ||
            a->parent_id != b->parent_id ||
            a->branch_index != b->branch_index) {
            return "cached response bytes differ";
        }
        return "";
    }

    std::string
    compare_key(const ReplayWindow::Key& k) const
    {
        for (std::size_t w = 0; w < kWindows; w++) {
            const auto rk = ref_key(k);
            if (windows_[w]->size() != refs_[w]->size()) {
                return "window " + std::to_string(w) + " size " +
                       std::to_string(windows_[w]->size()) +
                       ", reference " + std::to_string(refs_[w]->size());
            }
            if (windows_[w]->classify(k) !=
                from_ref(refs_[w]->classify(rk))) {
                return "window " + std::to_string(w) +
                       " classify differs for " +
                       std::to_string(k.id.client) + "/" +
                       std::to_string(k.id.seq) + "/" +
                       std::to_string(k.visit);
            }
            const std::optional<net::TraversalPacket> cached =
                windows_[w]->cached_response(k);
            const std::string diff =
                diff_response(refs_[w]->cached_response(rk),
                              cached ? &*cached : nullptr);
            if (!diff.empty()) {
                return "window " + std::to_string(w) + ": " + diff;
            }
        }
        return "";
    }

    std::string
    compare_all() const
    {
        for (ClientId client = 0; client < clients_; client++) {
            for (std::uint64_t seq = 0; seq < seqs_; seq++) {
                for (std::uint64_t visit = 0; visit < 3; visit++) {
                    const std::string error =
                        compare_key({{client, seq}, visit});
                    if (!error.empty()) {
                        return error;
                    }
                }
            }
        }
        return "";
    }

    ClientId clients_;
    std::uint64_t seqs_;
    std::mt19937_64 rng_;
    int step_ = 0;
    std::vector<std::unique_ptr<ReplayWindow>> windows_;
    std::vector<std::unique_ptr<reference::ReplayWindow>> refs_;
};

TEST(ReplayWindowDifferential, MatchesReferenceOnRandomSequences)
{
    for (const std::size_t budget : {1u, 3u, 8u, 4096u}) {
        for (ClientId clients = 1; clients <= 5; clients++) {
            for (const std::uint64_t seed : {1u, 2u}) {
                Differential run(budget, clients,
                                 seed * 1000 + budget * 10 + clients);
                EXPECT_EQ(run.run(4000), "")
                    << "budget " << budget << ", " << clients
                    << " clients, seed " << seed;
            }
        }
    }
}

isa::Program
cas_increment_program()
{
    isa::ProgramBuilder b;
    b.load(8)
        .add(isa::sp(8), isa::dat(0), isa::imm(1))
        .cas(0, isa::dat(0), isa::sp(8))
        .jump_eq("done")
        .next_iter()
        .label("done")
        .ret();
    return b.build();
}

TEST(ReplayWindowCluster, ExactlyOnceUnderDuplicationWithTinyWindow)
{
    // End to end: duplicate-heavy network, a replay window small
    // enough that eviction happens mid-run, and a CAS counter as the
    // witness — n increments must land exactly n times, and the
    // duplicate-execution invariant must stay quiet.
    core::ClusterConfig config;
    config.check.invariants = true;
    config.accel.replay_window_entries = 8;
    config.faults = check::fuzz_fault_config("dup", /*seed=*/21);
    config.offload.adaptive_rto = true;
    config.offload.retransmit_timeout = micros(2000.0);
    core::Cluster cluster(config);

    const VirtAddr counter = cluster.allocator().alloc_on(0, 8, 256);
    cluster.memory().write_as<std::uint64_t>(counter, 0);
    auto program =
        std::make_shared<const isa::Program>(cas_increment_program());

    const int n = 100;
    int done = 0;
    auto submit = cluster.submitter(core::SystemKind::kPulse);
    for (int i = 0; i < n; i++) {
        offload::Operation op;
        op.program = program;
        op.start_ptr = counter;
        op.init_scratch.assign(16, 0);
        op.done = [&](offload::Completion&& completion) {
            EXPECT_EQ(completion.status, isa::TraversalStatus::kDone);
            done++;
        };
        submit(std::move(op));
    }
    cluster.queue().run();

    EXPECT_EQ(done, n);
    EXPECT_EQ(cluster.memory().read_as<std::uint64_t>(counter),
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(cluster.verify_quiesce(), 0u);
    EXPECT_EQ(cluster.checker()->registry().count(
                  check::InvariantKind::kDuplicateExecution),
              0u);
}

}  // namespace
}  // namespace pulse::accel
