/**
 * @file
 * Static analysis of pulse programs (the offload engine's cost model,
 * paper section 4.1).
 *
 * Because jumps are forward-only, the per-iteration control flow is a
 * DAG and every quantity the offload decision needs is statically
 * computable:
 *   - N: the worst-case number of logic instructions per iteration
 *     (longest path through the DAG, excluding LOAD/STORE),
 *   - the aggregated load footprint (max byte referenced relative to
 *     cur_ptr; the builder's LOAD length must cover it),
 *   - the scratch_pad footprint,
 *   - t_c = N * t_i and eta = t_c / t_d for the offload threshold test
 *     t_c <= eta_threshold * t_d (section 4.2.2's pipeline-balance
 *     condition).
 */
#ifndef PULSE_ISA_ANALYSIS_H
#define PULSE_ISA_ANALYSIS_H

#include "common/units.h"
#include "isa/program.h"

namespace pulse::isa {

/**
 * Analyze @p program (includes verification). Program's constructor
 * runs this once; read Program::analysis() instead of calling it.
 */
ProgramAnalysis analyze(const Program& program);

/**
 * Offload cost model: compute time for the worst-case iteration given
 * the accelerator's per-instruction logic time @p t_i.
 */
Time compute_time(const ProgramAnalysis& analysis, Time t_i);

/**
 * eta = t_c / t_d for accelerator memory-pipeline time @p t_d per
 * iteration (paper Table 2 reports this per workload).
 */
double compute_eta(const ProgramAnalysis& analysis, Time t_i, Time t_d);

}  // namespace pulse::isa

#endif  // PULSE_ISA_ANALYSIS_H
