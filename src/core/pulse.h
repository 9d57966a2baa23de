/**
 * @file
 * Umbrella header: the whole pulse public API in one include.
 *
 * Typical flow:
 *
 *   #include "core/pulse.h"
 *
 *   pulse::core::ClusterConfig config;         // rack shape + timing
 *   pulse::core::Cluster cluster(config);       // the simulated rack
 *
 *   pulse::ds::HashTable table(cluster.memory(),
 *                              cluster.allocator(), {...});
 *   table.insert_many(keys);                    // functional build
 *
 *   auto op = table.make_find(key, callback);   // iterator -> ISA op
 *   cluster.submitter(pulse::core::SystemKind::kPulse)(std::move(op));
 *   cluster.queue().run();                      // drive the simulation
 *
 * Lower layers (isa::, accel::, net::, mem::) are public too — the
 * benches and tests use them directly — but most applications only
 * need the types re-exported here.
 */
#ifndef PULSE_CORE_PULSE_H
#define PULSE_CORE_PULSE_H

// The rack and compared systems.
#include "core/cluster.h"

// Programming model: programs, builder, analysis, assembler.
#include "isa/analysis.h"
#include "isa/assembler.h"
#include "isa/codec.h"
#include "isa/program.h"
#include "isa/traversal.h"

// Adapted data structures (supp. Table 3).
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "ds/prox_graph.h"
#include "ds/search_tree.h"
#include "ds/table3.h"

// Workloads and the traffic generator.
#include "apps/apps.h"
#include "serve/fleet.h"
#include "workloads/workloads.h"

// Energy accounting.
#include "energy/energy_model.h"

#endif  // PULSE_CORE_PULSE_H
