/**
 * @file
 * Program-identity goldens: the encoded ISA programs of the tree
 * lower-bound traversals (STL layout and the three Boost layouts) and
 * of the hash table's find and update must hash to
 * tests/goldens/program.digests. No figure golden runs a tree, so
 * these digests are what pins a program builder's output through a
 * refactor: same digest, same instructions, same simulated behaviour.
 */
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "ds/hash_table.h"
#include "ds/search_tree.h"
#include "golden_digest.h"
#include "isa/codec.h"

namespace pulse::ds {
namespace {

void
expect_program_digest(const std::string& name,
                      const isa::Program& program)
{
    testing::expect_golden_digest(name, isa::encode_program(program),
                                  "program");
}

TEST(ProgramGolden, TreeLowerBound)
{
    core::Cluster cluster(core::ClusterConfig{});
    const std::pair<const char*, TreeLayout> layouts[] = {
        {"tree_stl", TreeLayout::kStl},
        {"tree_avl", TreeLayout::kAvl},
        {"tree_splay", TreeLayout::kSplay},
        {"tree_scapegoat", TreeLayout::kScapegoat},
    };
    for (const auto& [name, layout] : layouts) {
        SearchTree tree(cluster.memory(), cluster.allocator(), layout);
        expect_program_digest(name, *tree.lower_bound_program());
    }
}

TEST(ProgramGolden, HashFindAndUpdate)
{
    core::Cluster cluster(core::ClusterConfig{});
    HashTable table(cluster.memory(), cluster.allocator(),
                    HashTableConfig{});
    expect_program_digest("hash_find", *table.find_program());
    expect_program_digest("hash_update", *table.update_program());
}

}  // namespace
}  // namespace pulse::ds
