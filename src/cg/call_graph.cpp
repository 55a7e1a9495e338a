#include "cg/call_graph.hpp"

#include <algorithm>
#include <atomic>

#include "cg/csr_view.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace capi::cg {

namespace {

/// Journal bound: above this the oldest half is trimmed and the floor rises,
/// turning very old deltaSince() requests into full-invalidation answers.
/// Sized so a dlopen of a mid-sized DSO (thousands of nodes/edges) still
/// fits between two selection runs.
constexpr std::size_t kJournalCap = 1 << 16;

/// The sighting merge rule shared by addFunction and Assembly::intern: the
/// first definition supplies the metadata, `inlineSpecified` accumulates
/// over definitions and `addressTaken` over every sighting.
template <typename Desc>
void mergeSighting(FunctionDesc& existing, Desc&& sighting) {
    const bool addressTaken =
        existing.flags.addressTaken || sighting.flags.addressTaken;
    if (sighting.flags.hasBody && !existing.flags.hasBody) {
        existing = std::forward<Desc>(sighting);
    } else if (sighting.flags.hasBody) {
        // Two definitions (inline functions in headers): keep the first.
        existing.flags.inlineSpecified |= sighting.flags.inlineSpecified;
    }
    existing.flags.addressTaken = addressTaken;
}

/// Appends `pairs` to the rows they name (first -> forward row, second ->
/// backward row), reserving each touched row by count, then sorts and
/// de-duplicates the touched rows.
void fillRelation(std::vector<CallGraph::Node>& nodes,
                  const std::vector<std::pair<FunctionId, FunctionId>>& pairs,
                  std::vector<FunctionId> CallGraph::Node::*forward,
                  std::vector<FunctionId> CallGraph::Node::*backward) {
    if (pairs.empty()) {
        return;
    }
    std::vector<std::uint32_t> forwardCount(nodes.size(), 0);
    std::vector<std::uint32_t> backwardCount(nodes.size(), 0);
    for (const auto& [from, to] : pairs) {
        if (from >= nodes.size() || to >= nodes.size()) {
            throw support::Error("CallGraph::Assembly: pair (" +
                                 std::to_string(from) + ", " +
                                 std::to_string(to) + ") names an unknown id");
        }
        ++forwardCount[from];
        ++backwardCount[to];
    }
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        if (forwardCount[id] != 0) {
            std::vector<FunctionId>& row = nodes[id].*forward;
            row.reserve(row.size() + forwardCount[id]);
        }
        if (backwardCount[id] != 0) {
            std::vector<FunctionId>& row = nodes[id].*backward;
            row.reserve(row.size() + backwardCount[id]);
        }
    }
    for (const auto& [from, to] : pairs) {
        (nodes[from].*forward).push_back(to);
        (nodes[to].*backward).push_back(from);
    }
    auto sortUnique = [](std::vector<FunctionId>& row) {
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
    };
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        if (forwardCount[id] != 0) {
            sortUnique(nodes[id].*forward);
        }
        if (backwardCount[id] != 0) {
            sortUnique(nodes[id].*backward);
        }
    }
}

}  // namespace

void CallGraph::throwRenameError(const std::string& name) {
    throw support::Error("mutateDesc must not rename '" + name +
                         "': the name is the lookup index key");
}

void CallGraph::throwDeadNodeError(FunctionId id) {
    throw support::Error("operation on removed function id " +
                         std::to_string(id));
}

std::uint64_t CallGraph::nextGenerationStamp() {
    // Process-global so a stamp never repeats across graph instances: a
    // cache entry stored for one graph can never be served for another that
    // happens to have seen the same number of mutations.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t CallGraph::nextGraphId() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

CallGraph::CallGraph() = default;

CallGraph::~CallGraph() {
    releaseSnapshots();
}

void CallGraph::releaseSnapshots() noexcept {
    if (graphId_ != 0) {
        CsrView::releaseGraph(graphId_);
    }
}

CallGraph::CallGraph(const CallGraph& other)
    : nodes_(other.nodes_),
      byName_(other.byName_),
      entry_(other.entry_),
      aliveCount_(other.aliveCount_),
      generation_(other.generation_),
      graphId_(nextGraphId()),
      journal_(),
      // The copy shares the original's content stamp but starts a fresh
      // lineage: deltas are answerable from the copied revision onward.
      journalFloor_(other.generation_),
      drainMark_(other.generation_) {}

CallGraph& CallGraph::operator=(const CallGraph& other) {
    if (this == &other) {
        return *this;
    }
    releaseSnapshots();
    nodes_ = other.nodes_;
    byName_ = other.byName_;
    entry_ = other.entry_;
    aliveCount_ = other.aliveCount_;
    generation_ = other.generation_;
    graphId_ = nextGraphId();
    journal_.clear();
    journalFloor_ = other.generation_;
    drainMark_ = other.generation_;
    return *this;
}

CallGraph::CallGraph(CallGraph&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      byName_(std::move(other.byName_)),
      entry_(other.entry_),
      aliveCount_(other.aliveCount_),
      generation_(other.generation_),
      graphId_(other.graphId_),
      journal_(std::move(other.journal_)),
      journalFloor_(other.journalFloor_),
      drainMark_(other.drainMark_) {
    other.graphId_ = 0;  // The husk no longer owns registered snapshots.
}

CallGraph& CallGraph::operator=(CallGraph&& other) noexcept {
    if (this == &other) {
        return *this;
    }
    releaseSnapshots();
    nodes_ = std::move(other.nodes_);
    byName_ = std::move(other.byName_);
    entry_ = other.entry_;
    aliveCount_ = other.aliveCount_;
    generation_ = other.generation_;
    graphId_ = other.graphId_;
    journal_ = std::move(other.journal_);
    journalFloor_ = other.journalFloor_;
    drainMark_ = other.drainMark_;
    other.graphId_ = 0;
    return *this;
}

void CallGraph::journalAppend(DeltaKind kind, FunctionId a, FunctionId b) {
    if (journal_.size() >= kJournalCap) {
        // Trim the oldest half; the floor rises to the newest trimmed stamp,
        // so deltaSince() for anything at or before it reports "history
        // gone" instead of a partial delta.
        const std::size_t keep = kJournalCap / 2;
        const std::size_t drop = journal_.size() - keep;
        journalFloor_ = journal_[drop - 1].generation;
        journal_.erase(journal_.begin(),
                       journal_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    journal_.push_back(DeltaRecord{generation_, a, b, kind});
}

std::optional<GraphDelta> CallGraph::deltaSince(std::uint64_t generation) const {
    if (generation < journalFloor_ || generation > generation_) {
        return std::nullopt;
    }
    auto it = std::upper_bound(
        journal_.begin(), journal_.end(), generation,
        [](std::uint64_t gen, const DeltaRecord& rec) { return gen < rec.generation; });
    // Stamps are process-global, so a stamp issued to a DIFFERENT graph can
    // fall numerically inside [journalFloor_, generation_]. Answering for it
    // would hand a caller holding another graph's revision a bogus partial
    // delta (and let a shared SelectorCache revive that graph's entries
    // here). Stamps are process-unique, so "this graph issued `generation`"
    // is exact: it is the current stamp, the floor stamp, or some journaled
    // record's stamp.
    const bool issuedHere =
        generation == generation_ || generation == journalFloor_ ||
        (it != journal_.begin() && std::prev(it)->generation == generation);
    if (!issuedHere) {
        return std::nullopt;
    }
    GraphDelta delta;
    delta.fromGeneration = generation;
    delta.toGeneration = generation_;
    for (; it != journal_.end(); ++it) {
        switch (it->kind) {
            case DeltaKind::NodeAdd: delta.addedNodes.push_back(it->a); break;
            case DeltaKind::NodeRemove: delta.removedNodes.push_back(it->a); break;
            case DeltaKind::CallEdgeAdd:
                delta.addedCallEdges.emplace_back(it->a, it->b);
                break;
            case DeltaKind::CallEdgeRemove:
                delta.removedCallEdges.emplace_back(it->a, it->b);
                break;
            case DeltaKind::OverrideAdd:
                delta.addedOverrides.emplace_back(it->a, it->b);
                break;
            case DeltaKind::OverrideRemove:
                delta.removedOverrides.emplace_back(it->a, it->b);
                break;
            case DeltaKind::MetricTouch: delta.metricTouches.push_back(it->a); break;
            case DeltaKind::DescTouch: delta.descTouches.push_back(it->a); break;
            case DeltaKind::EntryChange: delta.entryChanged = true; break;
        }
    }
    return delta;
}

GraphDelta CallGraph::drainDelta() {
    std::optional<GraphDelta> delta = deltaSince(drainMark_);
    drainMark_ = generation_;
    if (delta.has_value()) {
        return std::move(*delta);
    }
    // History trimmed past the drain mark: report "everything changed" the
    // only sound way available — every live node as added, entry changed.
    // Tombstones stay out: addedNodes never names dead ids, so a consumer
    // mirroring the drain cannot resurrect dlclosed functions.
    GraphDelta full;
    full.fromGeneration = journalFloor_;
    full.toGeneration = generation_;
    full.entryChanged = true;
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].alive) {
            full.addedNodes.push_back(id);
        }
    }
    return full;
}

bool insertSorted(std::vector<FunctionId>& vec, FunctionId value) {
    auto it = std::lower_bound(vec.begin(), vec.end(), value);
    if (it != vec.end() && *it == value) {
        return false;
    }
    vec.insert(it, value);
    return true;
}

bool eraseSorted(std::vector<FunctionId>& vec, FunctionId value) {
    auto it = std::lower_bound(vec.begin(), vec.end(), value);
    if (it == vec.end() || *it != value) {
        return false;
    }
    vec.erase(it);
    return true;
}

bool containsSorted(const std::vector<FunctionId>& vec, FunctionId value) {
    return std::binary_search(vec.begin(), vec.end(), value);
}

FunctionId CallGraph::addFunction(const FunctionDesc& desc) {
    generation_ = nextGenerationStamp();
    auto it = byName_.find(desc.name);
    if (it != byName_.end()) {
        mergeSighting(nodes_[it->second].desc, desc);
        // Any merge may rewrite flags/metrics; the name cannot change.
        journalAppend(DeltaKind::DescTouch, it->second);
        return it->second;
    }
    FunctionId id = static_cast<FunctionId>(nodes_.size());
    nodes_.push_back(Node{desc, {}, {}, {}, {}, true});
    byName_.emplace(desc.name, id);
    ++aliveCount_;
    journalAppend(DeltaKind::NodeAdd, id);
    if (!entry_.has_value() && desc.name == "main") {
        // No explicit entry: entryPoint() falls back to lookup("main"), so
        // this add silently changed it. Journal that, or cached traversal
        // results anchored on the old (absent) entry would survive.
        journalAppend(DeltaKind::EntryChange, id);
    }
    return id;
}

void CallGraph::addCallEdge(FunctionId caller, FunctionId callee) {
    requireAlive(caller);
    requireAlive(callee);
    if (insertSorted(nodes_[caller].callees, callee)) {
        insertSorted(nodes_[callee].callers, caller);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::CallEdgeAdd, caller, callee);
    }
}

void CallGraph::removeCallEdge(FunctionId caller, FunctionId callee) {
    if (eraseSorted(nodes_[caller].callees, callee)) {
        eraseSorted(nodes_[callee].callers, caller);
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::CallEdgeRemove, caller, callee);
    }
}

void CallGraph::addOverride(FunctionId base, FunctionId derived) {
    requireAlive(base);
    requireAlive(derived);
    if (insertSorted(nodes_[derived].overrides, base)) {
        generation_ = nextGenerationStamp();
        journalAppend(DeltaKind::OverrideAdd, base, derived);
    }
    insertSorted(nodes_[base].overriddenBy, derived);
}

void CallGraph::removeFunction(FunctionId id) {
    Node& node = nodes_[id];
    if (!node.alive) {
        return;
    }
    // One stamp covers the whole removal; every journaled record shares it.
    generation_ = nextGenerationStamp();
    for (FunctionId callee : node.callees) {
        eraseSorted(nodes_[callee].callers, id);
        journalAppend(DeltaKind::CallEdgeRemove, id, callee);
    }
    for (FunctionId caller : node.callers) {
        eraseSorted(nodes_[caller].callees, id);
        journalAppend(DeltaKind::CallEdgeRemove, caller, id);
    }
    for (FunctionId base : node.overrides) {
        eraseSorted(nodes_[base].overriddenBy, id);
        journalAppend(DeltaKind::OverrideRemove, base, id);
    }
    for (FunctionId derived : node.overriddenBy) {
        eraseSorted(nodes_[derived].overrides, id);
        journalAppend(DeltaKind::OverrideRemove, id, derived);
    }
    node.callees.clear();
    node.callers.clear();
    node.overrides.clear();
    node.overriddenBy.clear();
    const bool wasImplicitEntry = !entry_.has_value() && node.desc.name == "main";
    byName_.erase(node.desc.name);
    node.desc = FunctionDesc{};
    node.alive = false;
    --aliveCount_;
    if ((entry_.has_value() && *entry_ == id) || wasImplicitEntry) {
        // Explicit entry gone, or the lookup("main") fallback just lost its
        // target — either way entryPoint() changed.
        entry_.reset();
        journalAppend(DeltaKind::EntryChange, id);
    }
    journalAppend(DeltaKind::NodeRemove, id);
}

void CallGraph::removeFunctions(const std::vector<FunctionId>& ids) {
    for (FunctionId id : ids) {
        removeFunction(id);
    }
}

CallGraph::CompactionResult CallGraph::compact() {
    CompactionResult result;
    result.remap.resize(nodes_.size(), kInvalidFunction);
    if (aliveCount_ == nodes_.size()) {
        // Nothing to reclaim: identity remap, content untouched, stamp kept
        // (downstream caches stay valid).
        for (FunctionId id = 0; id < nodes_.size(); ++id) {
            result.remap[id] = id;
        }
        return result;
    }

    const std::uint64_t beginNs = support::probeNowNs();
    FunctionId next = 0;
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].alive) {
            result.remap[id] = next++;
        }
    }
    result.removed = nodes_.size() - aliveCount_;

    std::vector<Node> compacted;
    compacted.reserve(aliveCount_);
    for (FunctionId id = 0; id < nodes_.size(); ++id) {
        if (!nodes_[id].alive) {
            continue;
        }
        Node node = std::move(nodes_[id]);
        // Tombstones have no incident edges (removeFunction cleaned both
        // directions), so every endpoint here survives. The remap is
        // monotonic over alive ids, so sorted rows stay sorted.
        for (FunctionId& callee : node.callees) {
            callee = result.remap[callee];
        }
        for (FunctionId& caller : node.callers) {
            caller = result.remap[caller];
        }
        for (FunctionId& base : node.overrides) {
            base = result.remap[base];
        }
        for (FunctionId& derived : node.overriddenBy) {
            derived = result.remap[derived];
        }
        compacted.push_back(std::move(node));
    }
    nodes_ = std::move(compacted);
    for (auto& [name, id] : byName_) {
        id = result.remap[id];
    }
    if (entry_.has_value()) {
        // An explicit entry pointing at a tombstone cannot happen
        // (removeFunction resets entry_), so this always maps to a live id.
        entry_ = result.remap[*entry_];
    }

    // Renumbering invalidates every id-keyed consumer: registered CsrView
    // snapshots hold OLD ids and must never serve as patch predecessors for
    // the new numbering, and no journal suffix can express "all ids moved".
    CsrView::releaseGraph(graphId_);
    generation_ = nextGenerationStamp();
    journal_.clear();
    journalFloor_ = generation_;
    // drainMark_ keeps its pre-compaction stamp, now below the floor: the
    // next drainDelta() answers the full "everything changed" report instead
    // of an empty delta — a drain consumer's mirror still holds OLD ids.

    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    static obs::Counter& compactions =
        metrics.counter("capi_cg_compactions_total");
    static obs::Counter& reclaimed =
        metrics.counter("capi_cg_tombstones_reclaimed_total");
    compactions.add(1);
    reclaimed.add(result.removed);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        static const std::uint32_t kCompactSpan =
            obs::TraceRecorder::global().internName("cg.compact");
        recorder.recordComplete(kCompactSpan, obs::SpanCategory::Compaction,
                                beginNs, support::probeNowNs() - beginNs,
                                result.removed);
    }
    return result;
}

bool CallGraph::hasEdge(FunctionId caller, FunctionId callee) const {
    return containsSorted(nodes_[caller].callees, callee);
}

FunctionId CallGraph::lookup(std::string_view name) const {
    auto it = byName_.find(name);
    return it == byName_.end() ? kInvalidFunction : it->second;
}

FunctionId CallGraph::entryPoint() const {
    if (entry_.has_value()) {
        return *entry_;
    }
    return lookup("main");
}

std::size_t CallGraph::edgeCount() const {
    std::size_t count = 0;
    for (const Node& n : nodes_) {
        count += n.callees.size();
    }
    return count;
}

std::vector<FunctionId> CallGraph::allIds() const {
    std::vector<FunctionId> ids(nodes_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<FunctionId>(i);
    }
    return ids;
}

// ---------------------------------------------------------- Assembly ----

CallGraph::Assembly::Assembly(std::size_t expectedNodes) {
    graph_.nodes_.reserve(expectedNodes);
    graph_.byName_.reserve(expectedNodes);
}

FunctionId CallGraph::Assembly::intern(FunctionDesc desc) {
    auto [it, inserted] = graph_.byName_.try_emplace(
        desc.name, static_cast<FunctionId>(graph_.nodes_.size()));
    if (!inserted) {
        mergeSighting(graph_.nodes_[it->second].desc, std::move(desc));
        return it->second;
    }
    graph_.nodes_.push_back(Node{std::move(desc), {}, {}, {}, {}, true});
    ++graph_.aliveCount_;
    return it->second;
}

FunctionId CallGraph::Assembly::internDeclaration(std::string_view name) {
    FunctionId id = graph_.lookup(name);
    if (id != kInvalidFunction) {
        return id;
    }
    FunctionDesc decl;
    decl.name = name;
    decl.prettyName = name;
    return intern(std::move(decl));
}

std::size_t CallGraph::Assembly::fillRows() {
    fillRelation(graph_.nodes_, pendingCalls_, &Node::callees, &Node::callers);
    fillRelation(graph_.nodes_, pendingOverrides_, &Node::overriddenBy,
                 &Node::overrides);
    pendingCalls_.clear();
    pendingOverrides_.clear();
    return graph_.edgeCount();
}

CallGraph CallGraph::Assembly::finish() && {
    fillRows();
    // One stamp for the whole build and no history before it: deltaSince()
    // answers from this revision on, exactly like a fresh copy.
    graph_.generation_ = nextGenerationStamp();
    graph_.journal_.clear();
    graph_.journalFloor_ = graph_.generation_;
    graph_.drainMark_ = graph_.generation_;
    return std::move(graph_);
}

}  // namespace capi::cg
