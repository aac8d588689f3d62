/**
 * @file
 * Campaign sharding: stable shard keys, shard result files and the
 * shard merger.
 *
 * A campaign grid is a pure function of (base config, cell, seed), so
 * every cell can be addressed by a digest of its fully resolved
 * CampaignSpec. A shard `i/N` owns the cells whose global index is
 * congruent to i mod N — exact for ragged N (no cell dropped or
 * duplicated) and round-robin, which matches the grids' interleaved
 * cell order so every shard covers every topology block.
 *
 * The shard key is an FNV-1a fold of the owned cells' spec digests in
 * order: it changes iff any owned cell's configuration, seed, fault
 * timeline shape, or the shard geometry changes. A shard result file
 * is the campaign document `--json` writes (chaos/report.hpp) plus one
 * "shard" line carrying the key and a digest of its campaign lines, so
 * the merger can refuse stale or tampered shards. The owned cells are
 * implied by round-robin ownership, so the file does not list them.
 * Merging reassembles the campaigns in global order through the same
 * writer — the merged document is bit-identical to the monolithic
 * single-process run (asserted by tests and CI).
 */

#ifndef TPNET_CHAOS_SHARD_HPP
#define TPNET_CHAOS_SHARD_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"

namespace tpnet {
namespace chaos {

/** One shard of a campaign grid: index in [0, count). */
struct ShardSpec
{
    int index = 0;
    int count = 1;
};

/**
 * Parse "i/N" (0-based). @return false on malformed, i >= N, or N
 * above INT_MAX.
 */
bool parseShardSpec(const std::string &text, ShardSpec *out);

/** Round-robin ownership: shard owns global cell @p global_index. */
inline bool
shardOwns(const ShardSpec &s, std::size_t global_index)
{
    return global_index % static_cast<std::size_t>(s.count) ==
           static_cast<std::size_t>(s.index);
}

/** Indices of the cells @p shard owns out of @p total, ascending. */
std::vector<std::size_t> shardIndices(std::size_t total,
                                      const ShardSpec &shard);

/** Stable digest of a simulation configuration (versioned encoding). */
std::uint64_t configDigest(const SimConfig &cfg);

/** Stable digest of one fully resolved campaign cell. */
std::uint64_t campaignSpecDigest(const CampaignSpec &spec);

/** FNV-1a fold of the owned cells' spec digests, in order. */
std::uint64_t shardKey(const std::vector<CampaignSpec> &specs,
                       const ShardSpec &shard);

/** FNV-1a fold over the campaign JSON lines (order-sensitive). */
std::uint64_t resultDigest(const std::vector<std::string> &campaign_jsons);

/** 16-digit lowercase hex. */
std::string hex64(std::uint64_t v);

/**
 * Write one shard's results: the campaign document of @p results (the
 * cells @p shard owns out of @p total, in order) with the line
 *   "shard": {index, count, total, key, result_digest}
 * @return false on I/O error.
 */
bool writeShardJson(const std::string &path, const std::string &tool,
                    const ShardSpec &shard, std::size_t total,
                    std::uint64_t key,
                    const std::vector<CampaignResult> &results);

/** A parsed shard result file. */
struct ShardFile
{
    std::string tool;
    ShardSpec shard;
    std::size_t total = 0;
    std::uint64_t key = 0;
    std::uint64_t storedResultDigest = 0;
    std::vector<std::string> campaigns;  ///< exact single-line objects
};

/**
 * Parse a shard result file, check that it holds one campaign per cell
 * its shard owns out of its total, and verify its stored result digest
 * against the campaign lines. @return false with *error set on any
 * framing, parse, count or digest failure.
 */
bool readShardFile(const std::string &path, ShardFile *out,
                   std::string *error);

/**
 * Merge every "*.json" shard file in @p dir (the output file excluded)
 * into one monolithic campaign document at @p out_path. @p specs is the
 * full campaign list of the invocation. Validates: @p tool, one shard
 * count, a total of specs.size() (checked before anything is sized by
 * it), each shard index present exactly once, per-shard result digests,
 * and each shard's key against the key @p specs give for it — a stale
 * or foreign shard refuses to merge.
 *
 * @return 0 merged and every campaign passed; 1 merged but some
 * campaign failed; 2 merge error (nothing written).
 */
int mergeShards(const std::string &dir, const std::string &tool,
                const std::vector<CampaignSpec> &specs,
                const std::string &out_path, std::ostream &log);

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_SHARD_HPP
