// Binary wire format for fleet-scale profile streaming.
//
// Producers ship per-epoch deltas of their flat CCT (scorepsim/
// profile_delta.hpp) to the aggregator and receive converged policy deltas
// back. The format is byte-deterministic — the same frame struct always
// encodes to the same bytes — so golden-byte tests can pin it and the
// aggregator can deduplicate retransmissions by content.
//
// Frame layout (little-endian):
//
//   u32    magic "CFW1"
//   u8     frame type
//   varint payload length
//   ...    payload (type-specific, see the structs below)
//   u64    FNV-1a of the payload bytes
//
// Varints are LEB128 (7 bits per byte, high bit = continue) and carry only
// non-negative quantities: counts, ids, and counter deltas — which are
// non-negative by the CCT's monotonicity. Full-entropy words (policy
// fingerprints, double bit patterns) are fixed 8-byte fields; varint would
// inflate them.
//
// Decoding is defensive end to end: every read is bounds-checked, counts are
// validated against the bytes that remain, tier/handle values are range
// checked, and the checksum must match — any violation throws WireError
// (never UB, never a silent mis-merge). A frame that decodes cleanly is
// structurally sound; cross-frame consistency (id maps, fingerprint chains)
// is the aggregator's job.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adapt/epoch_decider.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "select/ic.hpp"
#include "support/error.hpp"

namespace capi::fleet {

/// Raised on any malformed, truncated, or corrupted frame.
class WireError : public support::Error {
public:
    explicit WireError(const std::string& what)
        : support::Error("fleet wire: " + what) {}
};

inline constexpr std::uint32_t kWireMagic = 0x31574643u;  // "CFW1"

enum class FrameType : std::uint8_t {
    Delta = 1,           ///< client -> aggregator: one epoch's CCT delta.
    PolicyBaseline = 2,  ///< aggregator -> client: full converged policy.
    PolicyUpdate = 3,    ///< aggregator -> client: policy diff vs last sent.
    Resync = 4,          ///< client -> aggregator: fingerprint chain broken.
    Bye = 5,             ///< client -> aggregator: clean disconnect.
    Snapshot = 6,        ///< aggregator state checkpoint (never on channels).
};

/// First-use region definition: producers intern (handle -> name) once per
/// stream; later frames carry bare handles.
struct RegionDef {
    std::uint32_t handle = 0;
    std::string name;
};

/// Per-region gate-suppressed visit delta (Sampled tier bookkeeping).
struct SuppressedDelta {
    std::uint32_t region = 0;
    std::uint64_t visits = 0;
};

/// client -> aggregator: everything one epoch accumulated. Node ids and
/// region handles are producer-side; the aggregator remaps both.
struct DeltaFrame {
    std::uint64_t clientId = 0;
    std::uint64_t epoch = 0;          ///< Client-local epoch of the last covered epoch.
    std::uint64_t coveredEpochs = 1;  ///< >1 when a dropped delta coalesced.
    double runtimeNs = 0.0;           ///< Summed over covered epochs.
    std::uint64_t policyFingerprint = 0;  ///< Policy applied while measuring.
    std::vector<RegionDef> newRegions;
    scorep::CctDelta cct;
    std::vector<SuppressedDelta> suppressed;
};

/// aggregator -> client: the converged policy for one fleet epoch, either as
/// a full baseline (late-joiner catch-up, resync) or as upserts/removals
/// against the last policy this client was sent. `fingerprint` is the full
/// policy's fingerprint after applying — the client verifies it and requests
/// a resync on mismatch instead of running diverged.
struct PolicyFrameEntry {
    std::string name;
    select::RegionPolicy policy;
};

struct PolicyFrame {
    std::uint64_t epoch = 0;
    /// The sending aggregator's incarnation (1 for a fresh aggregator,
    /// previous + 1 after every checkpoint restore). A client that sees the
    /// incarnation move knows the server restarted and its session state now
    /// lives on the restored twin — the restart-detection half of the
    /// checkpoint/resume protocol.
    std::uint64_t incarnation = 1;
    bool baseline = false;
    std::uint64_t prevFingerprint = 0;  ///< Update only: expected base.
    std::uint64_t fingerprint = 0;
    std::vector<PolicyFrameEntry> upserts;
    std::vector<std::string> removed;   ///< Update only.
    // Headline epoch telemetry so clients can fill their EpochReport.
    double measuredOverheadRatio = 0.0;
    double budgetNs = 0.0;
    bool withinBudget = false;
};

/// One fleet-tree node in a snapshot, in node-id order (ids 1..n-1; the
/// root is implicit with zero counters, as in CctWatermark). Parents always
/// precede children, so a restore can rebuild the tree in one pass.
struct SnapshotNode {
    std::uint32_t parent = 0;
    std::uint32_t region = 0;
    std::uint64_t visits = 0;
    std::uint64_t inclusiveNs = 0;
};

/// Per-client session state in a snapshot: everything the aggregator must
/// remember for a client to resume after a restart without a full resync —
/// its id maps, the acked watermark the client rewinds to, the fingerprint
/// chain base (lastSentPolicy), and any ingested-but-unmerged frames.
struct SnapshotClient {
    std::uint64_t id = 0;
    bool evicted = false;
    std::uint64_t missedEpochs = 0;
    bool needsBaseline = false;
    /// Client node id -> fleet node id.
    std::vector<std::uint32_t> idMap;
    /// Client region handle -> fleet region handle (kNoRegion = undefined).
    std::vector<std::uint32_t> regionMap;
    /// Mirror of the client's watermark at its last acked frame (client-side
    /// node ids) — what ResumeState hands back after a restore.
    scorep::CctWatermark watermark;
    /// Cumulative suppressed visits acked per client handle, sorted.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> suppressedAcked;
    double runtimeAckedNs = 0.0;
    std::uint64_t epochsAcked = 0;
    select::InstrumentationPolicy lastSentPolicy;
    /// Ingested but unmerged delta frames, verbatim (each carries its own
    /// seal, so snapshot corruption inside one is still caught typed).
    std::vector<std::vector<std::uint8_t>> pending;
};

/// The aggregator's complete persistent state: a byte-deterministic,
/// versioned payload under the same CFW seal every other frame uses.
/// Aggregator::checkpoint() emits one; the restoring constructor replays it
/// so the restored aggregator continues bit-identically to an uninterrupted
/// twin. The survey fingerprint guards against restoring under a different
/// candidate set than the one the state was accumulated against.
struct SnapshotFrame {
    std::uint64_t incarnation = 1;
    std::uint64_t epochsCompleted = 0;
    std::uint64_t nextClientId = 0;
    double lastRatio = 0.0;
    double lastBudgetNs = 0.0;
    bool lastWithinBudget = true;
    std::uint64_t surveyFingerprint = 0;
    select::InstrumentationPolicy currentPolicy;
    std::vector<std::string> regionNames;
    std::vector<SnapshotNode> nodes;
    std::vector<std::pair<std::string, scorep::ProfileTree::RegionTotals>>
        lastTotals;
    /// The EpochDecider's state. Its kill-switch fields are encoded right
    /// after nextClientId, its model after lastTotals.
    adapt::DeciderState decider;
    std::vector<SnapshotClient> clients;  ///< Ascending client id.
};

std::vector<std::uint8_t> encodeDeltaFrame(const DeltaFrame& frame);
std::vector<std::uint8_t> encodePolicyFrame(const PolicyFrame& frame);
std::vector<std::uint8_t> encodeSnapshotFrame(const SnapshotFrame& frame);
/// Resync / Bye: payload is just the client id.
std::vector<std::uint8_t> encodeControlFrame(FrameType type,
                                             std::uint64_t clientId);

/// Validates header + checksum and returns the frame type.
FrameType frameTypeOf(const std::vector<std::uint8_t>& bytes);

DeltaFrame decodeDeltaFrame(const std::vector<std::uint8_t>& bytes);
PolicyFrame decodePolicyFrame(const std::vector<std::uint8_t>& bytes);
/// Throws WireError on anything but a structurally sound v1 snapshot —
/// truncation, bit flips, bad version, inconsistent per-client state.
SnapshotFrame decodeSnapshotFrame(const std::vector<std::uint8_t>& bytes);
std::uint64_t decodeControlFrame(const std::vector<std::uint8_t>& bytes,
                                 FrameType expected);

}  // namespace capi::fleet
