/**
 * @file
 * Campaign sharding and checkpoint/restore options for tpnet_verify.
 *
 * Sharding (--shard i/N, --manifest, --merge-shards, --cache) and
 * replay checkpointing (--checkpoint, --checkpoint-every, --restore)
 * act on the campaign list, not on a simulator config; this header
 * holds their registration, validation, and the merge/cache/manifest
 * steps.
 * tpnet_cli shares the --shard spelling through addShardOption().
 *
 * The flow a sharded run follows:
 *   1. build the FULL campaign spec list exactly as a monolithic run
 *      would (the shard key and the manifest cover every cell);
 *   2. --merge-shards: probe the directory for N, compute the expected
 *      per-shard keys from the full list, merge, exit;
 *   3. --manifest: write the manifest for the full list;
 *   4. compute this shard's key, try the result cache, filter the spec
 *      list down to the owned cells, run them;
 *   5. write the shard result file (and store it into the cache).
 */

#ifndef TPNET_TOOLS_SHARD_CLI_HPP
#define TPNET_TOOLS_SHARD_CLI_HPP

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/manifest.hpp"
#include "sim/options.hpp"

namespace tpnet {
namespace tools {

/**
 * Register `--shard i/N` (checked while parsing) into @p spec; @p given
 * records that argv gave it.
 */
inline void
addShardOption(OptionParser &parser, const std::string &help,
               chaos::ShardSpec *spec, bool *given)
{
    parser.addValue("shard", "<i/N>", help,
                    [spec, given](const std::string &v, std::string *why) {
                        *why = "expected i/N with 0 <= i < N";
                        return *given = chaos::parseShardSpec(v, spec);
                    });
}

/** Sharding options of the campaign tool. */
struct ShardCli
{
    bool shardGiven = false;   ///< --shard given
    chaos::ShardSpec shard;    ///< --shard "i/N" (default: 0/1)
    std::string manifestPath;  ///< --manifest FILE
    std::string mergeDir;      ///< --merge-shards DIR (exclusive mode)
    std::string cacheDir;      ///< --cache DIR
};

inline void
addShardOptions(OptionParser &parser, ShardCli *s)
{
    addShardOption(parser,
                   "run only shard i/N of the campaign list "
                   "(round-robin by campaign index, i in 0..N-1); "
                   "--json then writes a shard result file",
                   &s->shard, &s->shardGiven);
    parser.addString("manifest",
                     "write the shard manifest (every shard's key and "
                     "cell count) for this campaign list, then run",
                     &s->manifestPath);
    parser.addString("merge-shards",
                     "merge the shard result files in this directory "
                     "into --json (validating keys against this "
                     "invocation's campaign list) and exit",
                     &s->mergeDir);
    parser.addString("cache",
                     "digest-addressed result cache directory: a shard "
                     "whose key is already cached is not re-run "
                     "(requires --json)",
                     &s->cacheDir);
}

/** Any option that switches the run into shard-result-file mode. */
inline bool
sharded(const ShardCli &s)
{
    return s.shardGiven || !s.cacheDir.empty();
}

/**
 * Cross-validate the sharding options. @p replay: sharding a single
 * replayed campaign is meaningless, so it is rejected.
 */
inline bool
validateShardCli(const ShardCli &s, bool have_json, bool replay,
                 std::string *error)
{
    if (replay && sharded(s)) {
        *error = "--shard/--cache cannot be combined with "
                 "--replay-seed (a replay is a single campaign)";
        return false;
    }
    if (!s.cacheDir.empty() && !have_json) {
        *error = "--cache needs --json (the cache stores the shard "
                 "result file)";
        return false;
    }
    return true;
}

/**
 * --merge-shards driver. @p all_specs is the full campaign list this
 * invocation's flags describe; when the directory's shard count can be
 * probed, the per-shard keys are recomputed from it and validated, so
 * stale shards (older grid, different seed range) refuse to merge.
 * @return process exit code (0 merged+clean, 1 merged+failures,
 * 2 merge error).
 */
inline int
runMergeShards(const ShardCli &s, const std::string &tool,
               const std::vector<chaos::CampaignSpec> &all_specs,
               const std::string &json_path)
{
    namespace fs = std::filesystem;
    const std::string out =
        json_path.empty()
            ? (fs::path(s.mergeDir) / "merged.json").string()
            : json_path;
    std::vector<std::uint64_t> keys;
    const int n = chaos::probeShardCount(s.mergeDir, out);
    for (int i = 0; i < n; ++i)
        keys.push_back(chaos::shardKey(all_specs, {i, n}));
    return chaos::mergeShards(s.mergeDir, tool, keys, out, std::cout);
}

/** Write the manifest when requested. @return false on I/O error. */
inline bool
writeShardManifest(const ShardCli &s, const std::string &tool,
                   const std::vector<chaos::CampaignSpec> &all_specs)
{
    if (s.manifestPath.empty())
        return true;
    if (!chaos::writeManifest(s.manifestPath, tool, s.shard.count,
                              all_specs))
        return false;
    std::printf("# manifest: %zu campaign(s) across %d shard(s) -> %s\n",
                all_specs.size(), s.shard.count,
                s.manifestPath.c_str());
    return true;
}

/**
 * Result-cache lookup. On a usable hit the cached shard file is copied
 * to @p json_path (so the artifact exists exactly as a real run would
 * leave it) and the cached verdict is returned as a process exit code.
 * @return -1 on a miss (run the campaigns normally).
 */
inline int
tryShardCache(const ShardCli &s, const std::string &tool,
              std::uint64_t key, std::size_t total,
              const std::string &json_path)
{
    if (s.cacheDir.empty())
        return -1;
    chaos::ShardFile hit;
    if (!chaos::cacheLookup(s.cacheDir, tool, s.shard, key, &hit) ||
        hit.total != total)
        return -1;
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::copy_file(fs::path(s.cacheDir) /
                      chaos::cacheFileName(tool, s.shard, key),
                  json_path, fs::copy_options::overwrite_existing, ec);
    if (ec)
        return -1;  // unreadable cache entry: fall back to a real run
    std::size_t failed = 0;
    for (const std::string &c : hit.campaigns)
        if (c.find("\"passed\": false") != std::string::npos)
            ++failed;
    std::printf("# shard %d/%d: cache hit (key %s), %zu campaign(s), "
                "%zu failed\n",
                s.shard.index, s.shard.count,
                chaos::hex64(key).c_str(), hit.campaigns.size(),
                failed);
    return failed ? 1 : 0;
}

/**
 * Write the shard result file and store it into the cache.
 * @return false on I/O error writing @p json_path.
 */
inline bool
writeShardOutputs(const ShardCli &s, const std::string &tool,
                  std::uint64_t key, std::size_t total,
                  const std::vector<std::size_t> &owned,
                  const std::vector<chaos::CampaignResult> &results,
                  const std::string &json_path)
{
    if (json_path.empty())
        return true;
    if (!chaos::writeShardJson(json_path, tool, s.shard, total, key,
                               owned, results))
        return false;
    if (!s.cacheDir.empty() &&
        !chaos::cacheStore(s.cacheDir, tool, s.shard, key, json_path))
        std::fprintf(stderr, "warning: cannot store shard result in "
                             "cache '%s'\n", s.cacheDir.c_str());
    return true;
}

/** Checkpoint/restore options (replay mode only). */
struct CheckpointCli
{
    std::uint64_t every = 0;  ///< --checkpoint-every N
    std::string path;         ///< --checkpoint FILE
    std::string restore;      ///< --restore FILE
};

inline void
addCheckpointOptions(OptionParser &parser, CheckpointCli *c)
{
    parser.addString("checkpoint",
                     "replay only: write checkpoints of the replayed "
                     "campaign to this file (atomic overwrite; the "
                     "newest complete checkpoint survives a kill)",
                     &c->path);
    parser.addUint64("checkpoint-every",
                     "replay only: checkpoint cadence in cycles "
                     "(requires --checkpoint)",
                     &c->every);
    parser.addString("restore",
                     "replay only: resume the replayed campaign from "
                     "this checkpoint file; the finished run is "
                     "bit-identical to a straight-through replay",
                     &c->restore);
}

/** Any checkpoint option present (arms the trace digest tee too). */
inline bool
checkpointArmed(const CheckpointCli &c)
{
    return c.every > 0 || !c.path.empty() || !c.restore.empty();
}

inline bool
validateCheckpointCli(const CheckpointCli &c, bool replay,
                      std::string *error)
{
    if (!checkpointArmed(c))
        return true;
    if (!replay) {
        *error = "--checkpoint/--checkpoint-every/--restore need "
                 "--replay-seed (they act on a single campaign)";
        return false;
    }
    if (c.every > 0 && c.path.empty()) {
        *error = "--checkpoint-every needs --checkpoint FILE";
        return false;
    }
    return true;
}

/**
 * Print the restore/checkpoint/digest report for a finished replay.
 * Goes to stdout as '#' comment lines, never into --json, so sharded
 * and monolithic documents stay bit-identical.
 */
inline void
printCheckpointReport(const CheckpointCli &c,
                      const chaos::CampaignResult &r)
{
    if (r.restored) {
        std::printf("# restore: resumed at cycle %llu from %s\n",
                    static_cast<unsigned long long>(r.restoredAt),
                    c.restore.c_str());
    }
    if (r.checkpointsWritten > 0) {
        std::printf("# checkpoint: wrote %llu checkpoint(s) to %s "
                    "(every %llu cycles)\n",
                    static_cast<unsigned long long>(
                        r.checkpointsWritten),
                    c.path.c_str(),
                    static_cast<unsigned long long>(c.every));
    }
    if (!r.checkpointError.empty()) {
        std::printf("# checkpoint ERROR: %s\n",
                    r.checkpointError.c_str());
    }
    std::printf("# tail digest %s (from cycle %llu), state digest %s\n",
                chaos::hex64(r.tailDigest).c_str(),
                static_cast<unsigned long long>(r.tailDigestFrom),
                chaos::hex64(r.stateDigest).c_str());
}

} // namespace tools
} // namespace tpnet

#endif // TPNET_TOOLS_SHARD_CLI_HPP
