/**
 * @file
 * pulse_asm — command-line assembler / analyzer for pulse ISA
 * programs.
 *
 * Reads a traversal program in assembler syntax (docs/ISA.md) from a
 * file or stdin, verifies it, and reports what the offload engine
 * would decide: instruction counts, worst-case logic path, load and
 * scratch footprints, eta, wire sizes, and the offload verdict.
 *
 *   $ ./pulse_asm program.pasm
 *   $ echo 'LOAD 16
 *           MOVE cur_ptr data[8]
 *           NEXT_ITER' | ./pulse_asm -
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "accel/accel_config.h"
#include "isa/analysis.h"
#include "isa/assembler.h"
#include "isa/codec.h"
#include "offload/offload_engine.h"

using namespace pulse;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: pulse_asm <file.pasm | ->\n"
                 "  assembles a pulse traversal program and prints "
                 "its static analysis\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        return usage();
    }

    std::string source;
    if (std::string(argv[1]) == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        source = buffer.str();
    } else {
        std::ifstream file(argv[1]);
        if (!file) {
            std::fprintf(stderr, "pulse_asm: cannot open %s\n",
                         argv[1]);
            return 2;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        source = buffer.str();
    }

    const isa::AssembleResult assembled = isa::assemble(source);
    if (!assembled.ok()) {
        std::fprintf(stderr, "assembly error: %s\n",
                     assembled.error.c_str());
        return 1;
    }
    const isa::Program& program = *assembled.program;

    std::printf("; disassembly\n%s\n",
                program.disassemble().c_str());

    std::string error;
    if (!program.verify(&error)) {
        std::fprintf(stderr, "verification FAILED: %s\n",
                     error.c_str());
        return 1;
    }

    const isa::ProgramAnalysis& analysis = program.analysis();
    const offload::OffloadConfig offload_defaults;
    const accel::AccelConfig accel_defaults;
    const Time t_i = accel_defaults.logic_time_per_insn;
    const double eta =
        compute_eta(analysis, t_i, accel_defaults.mem_pipeline_latency);

    std::printf("verification        : OK\n");
    std::printf("instructions        : %u (worst logic path %u)\n",
                analysis.num_instructions,
                analysis.worst_path_instructions);
    std::printf("load footprint      : %u B (max data ref %u B)\n",
                analysis.load_bytes, analysis.max_data_ref);
    std::printf("scratch footprint   : %u B of %u configured\n",
                analysis.scratch_footprint, program.scratch_bytes());
    std::printf("max iterations      : %u per request\n",
                program.max_iters());
    std::printf("stores/div          : %s / %s\n",
                analysis.has_store ? "yes" : "no",
                analysis.has_div ? "yes" : "no");
    std::printf("t_c                 : %s (t_i = %s per instruction)\n",
                format_time(compute_time(analysis, t_i)).c_str(),
                format_time(t_i).c_str());
    std::printf("eta (t_c / t_d)     : %.3f\n", eta);
    std::printf("offload verdict     : %s (threshold %.2f)\n",
                eta <= offload_defaults.eta_threshold
                    ? "OFFLOAD to accelerator"
                    : "run at CPU node (fallback)",
                offload_defaults.eta_threshold);
    std::printf("wire size           : %llu B installed, %llu B "
                "diagnostic\n",
                static_cast<unsigned long long>(
                    program.wire_code_size()),
                static_cast<unsigned long long>(
                    isa::encoded_size(program)));
    if (analysis.max_data_ref > analysis.load_bytes) {
        std::printf("warning: program references data[%u) but only "
                    "LOADs %u bytes\n",
                    analysis.max_data_ref, analysis.load_bytes);
    }
    return 0;
}
