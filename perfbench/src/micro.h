/**
 * @file
 * Two simulator layers timed alone, on inputs shaped by the workload:
 * the event queue at the workload's peak depth, and the ISA interpreter
 * on the workload's own programs and loaded bytes.
 */
#ifndef PERFBENCH_MICRO_H
#define PERFBENCH_MICRO_H

#include <cstddef>
#include <cstdint>

#include "rig.h"
#include "spans.h"

namespace perfbench {

/** Median host ns per schedule+step of a sim::EventQueue holding
 *  @p depth pending events, @p active of which keep firing (each fired
 *  event schedules one more) while the rest stay parked. */
double queue_ns_per_event(std::size_t depth, std::size_t active,
                          std::uint64_t seed, SpanLog& spans);

/** Median host ns per instruction of isa::run_iteration over iteration
 *  states captured from @p rig's operations and memory. */
double isa_ns_per_instr(Rig& rig, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H
