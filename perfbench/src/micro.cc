#include "micro.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/random.h"
#include "isa/interpreter.h"
#include "sim/event_queue.h"

namespace perfbench {

using namespace pulse;

namespace {

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

double
elapsed_ns(std::chrono::steady_clock::time_point since)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/** Every fired event schedules one more, so the depth stays fixed. */
struct QueueMicro
{
    sim::EventQueue queue;
    std::vector<Time> delays;
    std::size_t next = 0;

    void fire();
};

struct Tick
{
    QueueMicro* micro;
    void operator()() const { micro->fire(); }
};

void
QueueMicro::fire()
{
    queue.schedule_after(delays[next++ % delays.size()], Tick{this});
}

}  // namespace

double
queue_ns_per_event(std::size_t depth, std::size_t active,
                   std::uint64_t seed, SpanLog& spans)
{
    constexpr int kRounds = 9;
    constexpr std::uint64_t kEventsPerRound = 200'000;
    // Parked events sit far beyond the measured horizon, each at its own
    // time, like the retransmit timers that dominate a saturated run's
    // pending set.
    constexpr Time kParkedAt = micros(1e6);
    const std::uint32_t span = spans.begin(HostLayer::kQueueMicro);
    auto micro = std::make_unique<QueueMicro>();
    Rng rng(seed);
    // Whole-ns delays up to 2 us: gaps like the network and pipeline
    // stages', with same-timestamp collisions for the batching path.
    micro->delays.resize(1 << 16);
    for (Time& delay : micro->delays) {
        delay = nanos(static_cast<double>(rng.next_below(2000)));
    }
    depth = std::max<std::size_t>(depth, 1);
    active = std::clamp<std::size_t>(active, 1, depth);
    for (std::size_t i = active; i < depth; i++) {
        micro->queue.schedule_at(kParkedAt + nanos(static_cast<double>(i)),
                                 [] {});
    }
    for (std::size_t i = 0; i < active; i++) {
        micro->fire();
    }
    std::vector<double> per_event;
    for (int round = 0; round < kRounds; round++) {
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kEventsPerRound; i++) {
            micro->queue.step();
        }
        per_event.push_back(elapsed_ns(start) /
                            static_cast<double>(kEventsPerRound));
    }
    spans.end(span);
    return median(per_event);
}

double
isa_ns_per_instr(Rig& rig, SpanLog& spans)
{
    constexpr std::size_t kStates = 8192;
    constexpr int kPasses = 41;
    const std::uint32_t span = spans.begin(HostLayer::kIsaMicro);

    // Capture the workspace before each iteration's logic, following
    // the program host-side through the workload's own memory.
    struct State
    {
        std::shared_ptr<const isa::Program> program;
        isa::Workspace workspace;
    };
    std::vector<State> states;
    mem::GlobalMemory& memory = rig.cluster().memory();
    while (states.size() < kStates) {
        OpRecord record;
        offload::Operation op = rig.sample(&record);
        const isa::Program& program = *op.program;
        isa::Workspace ws;
        ws.configure(program);
        ws.cur_ptr = op.start_ptr;
        std::copy_n(op.init_scratch.data(),
                    std::min<std::size_t>(op.init_scratch.size(),
                                          ws.scratch.size()),
                    ws.scratch.begin());
        const std::uint32_t load_bytes = program.load_bytes();
        for (std::uint32_t iter = 0; iter < program.max_iters(); iter++) {
            if (load_bytes > 0) {
                if (ws.cur_ptr == kNullAddr) {
                    std::fill_n(ws.data.begin(), load_bytes, 0);
                } else {
                    memory.read(ws.cur_ptr, ws.data.data(), load_bytes);
                }
            }
            states.push_back(State{op.program, ws});
            if (isa::run_iteration(program, ws).end !=
                isa::IterEnd::kNextIter) {
                break;
            }
        }
    }

    std::vector<isa::Workspace> work(states.size());
    std::vector<double> per_instr;
    for (int pass = 0; pass < kPasses; pass++) {
        for (std::size_t i = 0; i < states.size(); i++) {
            work[i] = states[i].workspace;
        }
        std::uint64_t instructions = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < states.size(); i++) {
            instructions +=
                isa::run_iteration(*states[i].program, work[i])
                    .instructions_executed;
        }
        per_instr.push_back(elapsed_ns(start) /
                            static_cast<double>(instructions));
    }
    spans.end(span);
    return median(per_instr);
}

}  // namespace perfbench
