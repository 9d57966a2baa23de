#include "ds/table3.h"

#include <cstring>
#include <memory>

#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/linked_list.h"
#include "ds/search_tree.h"

namespace pulse::ds {
namespace {

/** List-category adapter factory (std::find over linked nodes). */
AdapterInfo
list_adapter(const std::string& name, const std::string& library)
{
    AdapterInfo info;
    info.name = name;
    info.category = "List";
    info.library = library;
    info.api = "std::find(first, last, value)";
    info.internal_fn = "std::find";
    info.make_lookup =
        [](mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
           const std::vector<std::uint64_t>& keys, std::uint64_t probe,
           std::function<bool(const offload::Completion&)>* checker) {
            auto list = std::make_shared<LinkedList>(memory, alloc);
            list->build(keys, 0);
            const auto expected = list->find_reference(probe);
            *checker = [list, expected](
                           const offload::Completion& completion) {
                const auto got = LinkedList::parse_find(completion);
                return got.has_value() == expected.has_value() &&
                       (!got || *got == *expected);
            };
            return list->make_find(probe, nullptr);
        };
    return info;
}

/** Hash-category adapter factory (bucket array + chains). */
AdapterInfo
hash_adapter(const std::string& name, const std::string& api)
{
    AdapterInfo info;
    info.name = name;
    info.category = "List";
    info.library = "Boost";
    info.api = api;
    info.internal_fn = "find(key, hash)";
    info.make_lookup =
        [](mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
           const std::vector<std::uint64_t>& keys, std::uint64_t probe,
           std::function<bool(const offload::Completion&)>* checker) {
            HashTableConfig config;
            config.num_buckets = 8;
            auto table = std::make_shared<HashTable>(memory, alloc,
                                                     config);
            table->insert_many(keys);
            const auto expected = table->find_reference(probe);
            *checker = [table, expected](
                           const offload::Completion& completion) {
                const auto got = table->parse_find(completion);
                return got.found == expected.has_value() &&
                       (!got.found || got.value_word == *expected);
            };
            return table->make_find(probe, nullptr);
        };
    return info;
}

/**
 * Tree-category adapter factory: _M_lower_bound over the STL layout,
 * lower_bound_loop over the Boost intrusive layouts.
 */
AdapterInfo
tree_adapter(const std::string& name, TreeLayout layout)
{
    const bool stl = layout == TreeLayout::kStl;
    AdapterInfo info;
    info.name = name;
    info.category = "Tree";
    info.library = stl ? "STL" : "Boost";
    info.api = "find(&key)";
    info.internal_fn = stl ? "_M_lower_bound(x, y, key)"
                           : "lower_bound_loop(x, y, key)";
    info.make_lookup =
        [layout](mem::GlobalMemory& memory,
                 mem::ClusterAllocator& alloc,
                 const std::vector<std::uint64_t>& keys,
                 std::uint64_t probe,
                 std::function<bool(const offload::Completion&)>*
                     checker) {
            auto tree =
                std::make_shared<SearchTree>(memory, alloc, layout);
            tree->build(keys, 0);
            const auto expected = tree->lower_bound_reference(probe);
            *checker = [tree, expected](
                           const offload::Completion& completion) {
                const auto got = SearchTree::parse_lower_bound(completion);
                if (got.found != expected.has_value()) {
                    return false;
                }
                return !got.found || (got.key == expected->first &&
                                      got.value == expected->second);
            };
            return tree->make_lower_bound(probe, nullptr);
        };
    return info;
}

/** Google btree adapter (internal_locate_plain_compare). */
AdapterInfo
google_btree_adapter()
{
    AdapterInfo info;
    info.name = "google::btree";
    info.category = "Tree";
    info.library = "Google";
    info.api = "find(key)";
    info.internal_fn = "internal_locate_plain_compare(key, iter)";
    info.make_lookup =
        [](mem::GlobalMemory& memory, mem::ClusterAllocator& alloc,
           const std::vector<std::uint64_t>& keys, std::uint64_t probe,
           std::function<bool(const offload::Completion&)>* checker) {
            BPTreeConfig config;
            config.inline_values = true;
            config.partitions = 1;
            auto tree = std::make_shared<BPTree>(memory, alloc,
                                                 config);
            std::vector<BPTreeEntry> entries;
            for (const std::uint64_t key : keys) {
                entries.push_back({key, value_pattern_word(key)});
            }
            tree->build(entries);
            const auto expected = tree->find_reference(probe);
            *checker = [tree, expected](
                           const offload::Completion& completion) {
                const auto got = BPTree::parse_find(completion);
                return got.found == expected.has_value() &&
                       (!got.found || got.payload == *expected);
            };
            return tree->make_find(probe, nullptr);
        };
    return info;
}

std::vector<AdapterInfo>
build_registry()
{
    std::vector<AdapterInfo> adapters;
    adapters.push_back(list_adapter("std::list", "STL"));
    adapters.push_back(list_adapter("std::forward_list", "STL"));
    adapters.push_back(hash_adapter("boost::bimap", "find(key, hash)"));
    adapters.push_back(
        hash_adapter("boost::unordered_map", "find(key, hash)"));
    adapters.push_back(
        hash_adapter("boost::unordered_set", "find(key, hash)"));
    adapters.push_back(google_btree_adapter());
    for (const char* name :
         {"std::map", "std::set", "std::multimap", "std::multiset"}) {
        adapters.push_back(tree_adapter(name, TreeLayout::kStl));
    }
    adapters.push_back(tree_adapter("boost::avl_set", TreeLayout::kAvl));
    adapters.push_back(
        tree_adapter("boost::splay_set", TreeLayout::kSplay));
    adapters.push_back(
        tree_adapter("boost::sg_set", TreeLayout::kScapegoat));
    return adapters;
}

}  // namespace

const std::vector<AdapterInfo>&
table3_adapters()
{
    static const std::vector<AdapterInfo> registry = build_registry();
    return registry;
}

}  // namespace pulse::ds
