/**
 * @file
 * Campaign sharding and checkpoint/restore options for tpnet_verify.
 *
 * Sharding (--shard i/N, --merge-shards) and replay checkpointing
 * (--checkpoint, --checkpoint-every, --restore) act on the campaign
 * list, not on a simulator config; this header holds their
 * registration, validation, and the merge step.
 *
 * The flow a sharded run follows:
 *   1. build the FULL campaign spec list exactly as a monolithic run
 *      would (the shard keys cover every cell);
 *   2. --merge-shards: merge the directory against that list (which
 *      gives every shard's expected key and the total), exit;
 *   3. --shard: compute this shard's key, run the owned cells, and
 *      write them as a shard result file.
 */

#ifndef TPNET_TOOLS_SHARD_CLI_HPP
#define TPNET_TOOLS_SHARD_CLI_HPP

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/shard.hpp"
#include "sim/options.hpp"

namespace tpnet {
namespace tools {

/** Sharding options of the campaign tool. */
struct ShardCli
{
    bool shardGiven = false;  ///< --shard given
    chaos::ShardSpec shard;   ///< --shard "i/N" (default: 0/1)
    std::string mergeDir;     ///< --merge-shards DIR (exclusive mode)
};

inline void
addShardOptions(OptionParser &parser, ShardCli *s)
{
    parser.addValue("shard", "<i/N>",
                    "run only shard i/N of the campaign list "
                    "(round-robin by campaign index, i in 0..N-1); "
                    "--json then writes a shard result file",
                    [s](const std::string &v, std::string *why) {
                        *why = "expected i/N with 0 <= i < N <= 2147483647";
                        return s->shardGiven =
                                   chaos::parseShardSpec(v, &s->shard);
                    });
    parser.addString("merge-shards",
                     "merge the shard result files in this directory "
                     "into --json (validating keys against this "
                     "invocation's campaign list) and exit",
                     &s->mergeDir);
}

/**
 * Cross-validate the sharding options. @p replay: sharding a single
 * replayed campaign is meaningless, so it is rejected.
 */
inline bool
validateShardCli(const ShardCli &s, bool replay, std::string *error)
{
    if (replay && s.shardGiven) {
        *error = "--shard cannot be combined with --replay-seed (a "
                 "replay is a single campaign)";
        return false;
    }
    return true;
}

/**
 * --merge-shards driver. @p all_specs is the full campaign list this
 * invocation's flags describe; the merger checks every shard's total
 * and key against it, so stale shards (older grid, different seed
 * range) refuse to merge.
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
    return chaos::mergeShards(s.mergeDir, tool, all_specs, out, std::cout);
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
    parser.addNumber("checkpoint-every",
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
