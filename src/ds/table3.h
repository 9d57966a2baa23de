/**
 * @file
 * Supplementary Table 3: the 13 data structures across 4 libraries
 * that the paper adapts to the pulse iterator abstraction, exposed as
 * a uniform adapter registry.
 *
 * Structures sharing an internal base function share an adapter class:
 *   - list category (std::find):        LinkedList
 *       STL list, STL forward_list
 *   - hash category (bucket chains):    HashTable
 *       Boost bimap, Boost unordered_map, Boost unordered_set
 *   - Google btree (internal_locate):   BPTree
 *   - STL tree (_M_lower_bound):        SearchTree, STL layout
 *       std::map, std::set, std::multimap, std::multiset
 *   - Boost intrusive (lower_bound_loop): SearchTree, Boost layouts
 *       AVL tree, splay tree, scapegoat tree
 *
 * Each registry entry can instantiate a small remote instance and
 * execute one offloaded lookup, checked against the host reference —
 * the uniform validation the supplementary materials describe.
 */
#ifndef PULSE_DS_TABLE3_H
#define PULSE_DS_TABLE3_H

#include <functional>
#include <string>
#include <vector>

#include "mem/allocator.h"
#include "mem/global_memory.h"
#include "offload/offload_engine.h"

namespace pulse::ds {

/** One adapted data structure (a Table 3 row). */
struct AdapterInfo
{
    std::string name;         ///< e.g. "std::map"
    std::string category;     ///< "List" or "Tree"
    std::string library;      ///< STL / Boost / Google
    std::string api;          ///< the adapted top-level API
    std::string internal_fn;  ///< the shared base function

    /**
     * Build a small instance over @p memory / @p alloc holding
     * @p keys (strictly increasing) and return an operation that
     * looks up @p probe, plus a checker that validates the completion
     * against the host reference. The returned callable owns the
     * structure.
     */
    std::function<offload::Operation(
        mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
        const std::vector<std::uint64_t>& keys, std::uint64_t probe,
        std::function<bool(const offload::Completion&)>* checker)>
        make_lookup;
};

/** All 13 Table 3 adapters.
 *  Only tests call this: observation hook. */
const std::vector<AdapterInfo>& table3_adapters();

}  // namespace pulse::ds

#endif  // PULSE_DS_TABLE3_H
