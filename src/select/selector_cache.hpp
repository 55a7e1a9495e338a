// Cross-run memoization of selector stage results, surviving graph deltas.
//
// The runtime-adaptable workflow re-runs selection repeatedly: every
// refinement round re-evaluates a spec whose early stages (imported MPI
// modules, reachability closures) are unchanged. The cache keys each stage
// result on its canonical selector hash and stamps it with the call-graph
// generation it was computed at. Two mechanisms keep it warm:
//
//  * Footprint survival ("incremental invalidation"): every entry records
//    the read footprint its selector reported during evaluation (see
//    footprint.hpp). beginRun() reconciles the cache with the graph's
//    current revision through the mutation journal — entries whose
//    footprint is disjoint from the delta's dirty sets are RE-STAMPED and
//    kept; only transitively affected stages re-evaluate. When the journal
//    no longer covers an entry's stamp (trimmed history, different graph),
//    the entry is purged, so survival is an optimization, never a
//    correctness dependency.
//
//  * Hash sharding: entries are distributed over independently locked
//    buckets, so concurrent pipeline stages on the DAG scheduler don't
//    serialize on one mutex. Per-shard stats expose the distribution.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "select/footprint.hpp"
#include "select/function_set.hpp"

namespace capi::cg {
class CallGraph;
}

namespace capi::select {

class SelectorCache {
public:
    static constexpr std::size_t kShardCount = 16;

    struct ShardStats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t invalidations = 0;  ///< Entries purged by graph change.
        std::uint64_t survivals = 0;      ///< Entries re-stamped across a delta.
        std::uint64_t evictions = 0;      ///< Entries dropped by the size cap.
        std::size_t entries = 0;          ///< Current population (stats() only).
    };

    /// Aggregate totals plus the per-shard breakdown.
    struct Stats : ShardStats {
        std::vector<ShardStats> perShard;
    };

    explicit SelectorCache(std::size_t maxEntries = 4096);
    ~SelectorCache();

    /// Reconciles every shard with `graph`'s current revision BEFORE a
    /// pipeline run. Entries stamped with an older revision survive when the
    /// graph's journal delta cannot have changed what they read (footprint
    /// disjoint from the dirty sets, no entry-point change); survivors of a
    /// universe-growing delta get their result/footprint bitsets resized.
    /// Everything else is purged. Pipeline calls this automatically.
    void beginRun(const cg::CallGraph& graph);

    /// Returns the memoized result for `selectorHash` at exactly
    /// `graphGeneration`, or null. Results are immutable and shared, so a
    /// hit costs a refcount bump under the shard lock, not a bitset copy
    /// (entries are ~51KB at OpenFOAM scale).
    std::shared_ptr<const FunctionSet> lookup(std::uint64_t graphGeneration,
                                              std::uint64_t selectorHash);

    /// The last stored result for `selectorHash` regardless of staleness —
    /// the re-validation anchor: a stage forced to re-evaluate compares its
    /// fresh result against this to decide whether dependents are actually
    /// dirty (a purge that reproduces identical bits must not cascade).
    std::shared_ptr<const FunctionSet> previousResult(std::uint64_t selectorHash);

    /// Insert-or-replace with the footprint recorded during evaluation.
    void store(std::uint64_t graphGeneration, std::uint64_t selectorHash,
               const FunctionSet& result, Footprint footprint);

    void clear();
    std::size_t size() const;
    Stats stats() const;

private:
    struct Entry {
        std::uint64_t generation = 0;
        std::shared_ptr<const FunctionSet> result;
        Footprint footprint;
        /// Purged by a delta but retained as the re-validation anchor;
        /// never served by lookup(), replaced by the next store().
        bool stale = false;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::uint64_t, Entry> entries;  ///< Key: selector hash.
        std::deque<std::uint64_t> insertionOrder;          ///< For size-cap eviction.
        ShardStats stats;
    };

    Shard& shardFor(std::uint64_t selectorHash) {
        return shards_[(selectorHash >> 4) % kShardCount];
    }

    std::size_t maxEntriesPerShard_;
    std::array<Shard, kShardCount> shards_;
    /// obs::MetricsRegistry collector handle (label cache="<instance seq>").
    std::uint64_t metricsCollectorId_ = 0;
};

}  // namespace capi::select
