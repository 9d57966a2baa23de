/**
 * @file
 * The complete traversal loop (the execute() of Listing 1), with
 * pluggable memory access.
 *
 * run_traversal() drives a verified program to completion: per iteration
 * it performs the aggregated LOAD through the supplied memory callbacks,
 * runs the logic via the interpreter, applies pending STOREs, and either
 * follows cur_ptr into the next iteration or finishes. Its callers are
 * the program fuzzer (check/fuzzer.cc, production side of the
 * differential run) and tests, which wire the callbacks to plain
 * GlobalMemory. The timed execution sites — the accelerator, the RPC
 * runtime and the cache-based client — step run_iteration() themselves,
 * one event per iteration; the two baselines end their chains with
 * chain_end(), as this loop does.
 */
#ifndef PULSE_ISA_TRAVERSAL_H
#define PULSE_ISA_TRAVERSAL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/scratch_buffer.h"
#include "common/types.h"
#include "isa/interpreter.h"

namespace pulse::isa {

/** Why a traversal stopped. */
enum class TraversalStatus : std::uint8_t {
    kDone,        ///< RETURN reached; scratch_pad is the result
    kMaxIter,     ///< iteration cap hit; resume from cur_ptr if desired
    kExecFault,   ///< logic fault (divide by zero, ...)
    kMemFault,    ///< load/store failed (unmapped or protected address)
    kNotLocal,    ///< cur_ptr left the local node (accelerator use only)
    /**
     * QoS admission control rejected the request before any iteration
     * ran (serving plane, src/serve): a load-shed typed rejection. The
     * issuing engine completes the operation as a retryable failure, so
     * the driver's existing retry/backoff path re-submits it.
     */
    kRejected,
};

/** Final state of a traversal (mirrors the response packet payload). */
struct TraversalOutcome
{
    TraversalStatus status = TraversalStatus::kDone;
    ExecFault fault = ExecFault::kNone;
    std::uint64_t iterations = 0;
    std::uint64_t instructions = 0;  ///< total logic instructions run
    VirtAddr final_ptr = kNullAddr;
    std::vector<std::uint8_t> scratch;
};

/**
 * Memory access callbacks. Return false to signal a memory fault
 * (unmapped address / permission failure); kNotLocal is signalled by
 * the *caller* checking locality before invoking run_traversal.
 */
struct MemoryHooks
{
    std::function<bool(VirtAddr addr, std::uint32_t len,
                       std::uint8_t* out)> load;
    std::function<bool(VirtAddr addr, std::uint32_t len,
                       const std::uint8_t* in)> store;

    /**
     * Atomic CAS of the 64-bit word at @p addr (absolute). Absent =>
     * the kCas extension faults at this execution site.
     */
    std::function<bool(VirtAddr addr, std::uint64_t expected,
                       std::uint64_t desired)> cas;
};

/** How a single-chain traversal continues after one iteration. */
struct ChainEnd
{
    bool ended = false;  ///< false: NEXT_ITER, follow cur_ptr
    TraversalStatus status = TraversalStatus::kDone;
    ExecFault fault = ExecFault::kNone;
};

/**
 * The end of @p iter at an execution site with no fork coordinator
 * (run_traversal, the RPC runtime, the cache client): a SPAWN that
 * fired is kExecFault / kIllegalInstruction, a logic fault kExecFault,
 * and RETURN — or a JOIN that spawned nothing — kDone. Iteration caps
 * stay the caller's.
 */
ChainEnd chain_end(const IterationResult& iter);

/**
 * Run @p program from @p start_ptr with initial scratch_pad contents
 * @p init_scratch (shorter-than-configured contents are zero-padded).
 * @p max_iters of 0 uses the program's own cap.
 */
TraversalOutcome run_traversal(const Program& program, VirtAddr start_ptr,
                               const std::vector<std::uint8_t>& init_scratch,
                               const MemoryHooks& hooks,
                               std::uint32_t max_iters = 0);

/**
 * Same, seeded from an inline ScratchBuffer (what Operation carries).
 * Avoids materializing a vector just to seed the workspace.
 */
TraversalOutcome run_traversal(const Program& program, VirtAddr start_ptr,
                               const ScratchBuffer& init_scratch,
                               const MemoryHooks& hooks,
                               std::uint32_t max_iters = 0);

}  // namespace pulse::isa

#endif  // PULSE_ISA_TRAVERSAL_H
