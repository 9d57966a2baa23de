/**
 * @file
 * The single-chain traversal loop (the execute() of Listing 1): one
 * walk, and the one rule for how it loads and how each iteration ends.
 *
 * A Walk is one chain in progress: its workspace and the iterations it
 * has run. seed() starts it from a program, a start pointer and the
 * initial scratch_pad; null_page_load() gives a load at the null
 * pointer its zeros; advance() counts an iteration and decides whether
 * the walk resumes at cur_ptr, ends (chain_end()), or stops at an
 * iteration guard with kMaxIter.
 *
 * run_traversal() drives a Walk to completion with pluggable memory
 * callbacks; the program fuzzer (check/fuzzer.cc, production side of
 * the differential run) and tests wire them to plain GlobalMemory. The
 * timed client-side executors — the offload engine's fallback, the RPC
 * runtime and the cache client — step the same Walk one event per
 * iteration, each adding its own memory timing and store policy.
 * Only the accelerator, which coordinates forks, ends iterations its
 * own way.
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
 * (every Walk): a SPAWN that fired is kExecFault / kIllegalInstruction,
 * a logic fault kExecFault, and RETURN — or a JOIN that spawned
 * nothing — kDone. Iteration caps are Walk::advance()'s.
 */
ChainEnd chain_end(const IterationResult& iter);

/** One single-chain traversal in progress. */
struct Walk
{
    Workspace workspace;
    std::uint64_t iterations = 0;  ///< iterations run so far

    /**
     * Size the workspace for @p program and start at @p start_ptr with
     * the @p init_len bytes at @p init as the scratch_pad (zero-padded;
     * bytes past the program's scratch_pad are dropped).
     */
    void seed(const Program& program, VirtAddr start_ptr,
              const std::uint8_t* init, std::size_t init_len);

    /**
     * Null-page semantics for the iteration's aggregated load of
     * @p load_bytes at cur_ptr: true when it needs no memory access —
     * the program loads nothing, or cur_ptr is kNullAddr and the data
     * registers read zeros (programs test cur_ptr == 0 to terminate,
     * e.g. map lower_bound). False: the caller loads from cur_ptr.
     */
    bool null_page_load(std::uint32_t load_bytes);

    /**
     * Count @p iter and decide how the walk continues: chain_end()'s
     * end, else kMaxIter once @p guard iterations have run, else not
     * ended (resume at cur_ptr).
     */
    ChainEnd advance(const IterationResult& iter, std::uint64_t guard);
};

/**
 * Run @p program from @p start_ptr with initial scratch_pad contents
 * @p init_scratch (shorter-than-configured contents are zero-padded).
 * @p max_iters of 0 uses the program's own cap.
 */
TraversalOutcome run_traversal(const Program& program, VirtAddr start_ptr,
                               const std::vector<std::uint8_t>& init_scratch,
                               const MemoryHooks& hooks,
                               std::uint32_t max_iters = 0);

/** Same, seeded from an inline ScratchBuffer (what Operation
 *  carries). */
TraversalOutcome run_traversal(const Program& program, VirtAddr start_ptr,
                               const ScratchBuffer& init_scratch,
                               const MemoryHooks& hooks,
                               std::uint32_t max_iters = 0);

}  // namespace pulse::isa

#endif  // PULSE_ISA_TRAVERSAL_H
