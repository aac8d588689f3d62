/** @file Campaign sharding: partition exactness, stable keys, shard
 *  result files, and the merger's bit-identity with a monolithic run
 *  and refusal of missing, duplicate, stale, foreign and hostile
 *  shards. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "chaos/campaign.hpp"
#include "chaos/shard.hpp"
#include "chaos/report.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using namespace chaos;
namespace fs = std::filesystem;

/** Fresh scratch directory under the test temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const fs::path &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
}

/** Cheap-but-real campaign spec (one cell of a tiny grid). */
CampaignSpec
cheapSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.msgLength = 8;
    spec.cfg.load = 0.03 + 0.01 * static_cast<double>(seed % 3);
    spec.seed = seed;
    spec.injectCycles = 300;
    spec.drainCycles = 50000;
    spec.faults.horizon = 300;
    spec.faults.earliest = 20;
    spec.faults.nodeKills = 1;
    spec.faults.linkKills = 1;
    spec.faults.intermittents = 1;
    spec.faults.downMin = 50;
    spec.faults.downMax = 100;
    return spec;
}

std::vector<CampaignSpec>
cheapGrid(std::size_t total)
{
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < total; ++i)
        specs.push_back(cheapSpec(1 + i));
    return specs;
}

/** Synthetic results: enough structure to exercise the JSON path. */
std::vector<CampaignResult>
syntheticResults(std::size_t total)
{
    std::vector<CampaignResult> results(total);
    for (std::size_t i = 0; i < total; ++i) {
        CampaignResult &r = results[i];
        r.seed = 1 + i;
        r.passed = i % 4 != 3;
        r.cycles = 1000 + 7 * i;
        r.quiescent = r.passed;
        r.messages = 10 * i;
        if (!r.passed)
            r.violations.push_back("synthetic \"violation\" #" +
                                   std::to_string(i));
    }
    return results;
}

/** The results of the cells @p shard owns, in order. */
std::vector<CampaignResult>
ownedResults(const std::vector<CampaignResult> &all, const ShardSpec &shard)
{
    std::vector<CampaignResult> mine;
    for (std::size_t idx : shardIndices(all.size(), shard))
        mine.push_back(all[idx]);
    return mine;
}

/** Write shard-<i>.json for every shard i/count of @p all into @p dir. */
std::vector<fs::path>
writeAllShards(const fs::path &dir, const std::vector<CampaignSpec> &specs,
               const std::vector<CampaignResult> &all, int count)
{
    std::vector<fs::path> paths;
    for (int i = 0; i < count; ++i) {
        const ShardSpec shard{i, count};
        paths.push_back(dir / ("shard-" + std::to_string(i) + ".json"));
        EXPECT_TRUE(writeShardJson(paths.back().string(), "tpnet_test",
                                   shard, all.size(),
                                   shardKey(specs, shard),
                                   ownedResults(all, shard)));
    }
    return paths;
}

TEST(Shard, PartitionIsExactForRaggedCounts)
{
    for (std::size_t total : {1u, 5u, 80u, 81u, 97u}) {
        for (int count = 1; count <= 7; ++count) {
            std::set<std::size_t> seen;
            std::size_t owned_sum = 0;
            for (int index = 0; index < count; ++index) {
                const ShardSpec shard{index, count};
                const std::vector<std::size_t> owned =
                    shardIndices(total, shard);
                owned_sum += owned.size();
                for (std::size_t idx : owned) {
                    EXPECT_LT(idx, total);
                    EXPECT_TRUE(shardOwns(shard, idx));
                    EXPECT_TRUE(seen.insert(idx).second)
                        << "cell " << idx << " owned twice ("
                        << total << " cells, " << count << " shards)";
                }
                // Round-robin: shard sizes differ by at most one.
                EXPECT_GE(owned.size(), total / count);
                EXPECT_LE(owned.size(), total / count + 1);
            }
            EXPECT_EQ(owned_sum, total);
            EXPECT_EQ(seen.size(), total);
        }
    }
}

TEST(Shard, ParseShardSpecAcceptsAndRejects)
{
    ShardSpec s;
    ASSERT_TRUE(parseShardSpec("0/1", &s));
    EXPECT_EQ(s.index, 0);
    EXPECT_EQ(s.count, 1);
    ASSERT_TRUE(parseShardSpec("3/4", &s));
    EXPECT_EQ(s.index, 3);
    EXPECT_EQ(s.count, 4);

    ASSERT_TRUE(parseShardSpec("0/2147483647", &s));
    EXPECT_EQ(s.count, 2147483647);

    // Counts above INT_MAX are refused, not truncated: 2^32 + 2 would
    // wrap to shard 3/2 and 10^20 to shard 0/-1.
    for (const char *bad : {"", "4/4", "5/4", "-1/4", "a/b", "1/0",
                            "1/", "/4", "1/4x", "1.5/4", "1 / 4", "+1/4",
                            "3/4294967298", "0/2147483648",
                            "0/99999999999999999999",
                            "99999999999999999999/99999999999999999999"})
        EXPECT_FALSE(parseShardSpec(bad, &s)) << "'" << bad << "'";
}

TEST(Shard, KeyIsStableAndSensitive)
{
    const std::vector<CampaignSpec> specs = cheapGrid(8);
    const ShardSpec shard{1, 3};
    const std::uint64_t key = shardKey(specs, shard);
    EXPECT_EQ(key, shardKey(specs, shard));  // pure function

    // A different shard of the same grid has a different key.
    EXPECT_NE(key, shardKey(specs, ShardSpec{0, 3}));
    EXPECT_NE(key, shardKey(specs, ShardSpec{1, 4}));

    // Any owned cell's config, seed, or fault shape changes the key.
    std::vector<CampaignSpec> mutated = specs;
    mutated[1].cfg.load += 0.01;
    EXPECT_NE(key, shardKey(mutated, shard));
    mutated = specs;
    mutated[4].seed += 100;
    EXPECT_NE(key, shardKey(mutated, shard));
    mutated = specs;
    mutated[7].faults.nodeKills += 1;
    EXPECT_NE(key, shardKey(mutated, shard));

    // A cell the shard does NOT own leaves the key unchanged.
    mutated = specs;
    mutated[0].cfg.load += 0.01;  // 0 % 3 != 1
    EXPECT_EQ(key, shardKey(mutated, shard));
}

TEST(Shard, ShardFileRoundTripsAndRejectsTamper)
{
    const fs::path dir = scratchDir("shard_roundtrip");
    const std::vector<CampaignSpec> specs = cheapGrid(7);
    const std::vector<CampaignResult> all = syntheticResults(7);
    const ShardSpec shard{2, 3};
    const std::uint64_t key = shardKey(specs, shard);
    const std::vector<CampaignResult> mine = ownedResults(all, shard);

    const fs::path path = dir / "shard-2.json";
    ASSERT_TRUE(
        writeShardJson(path.string(), "tpnet_test", shard, 7, key, mine));

    ShardFile sf;
    std::string error;
    ASSERT_TRUE(readShardFile(path.string(), &sf, &error)) << error;
    EXPECT_EQ(sf.tool, "tpnet_test");
    EXPECT_EQ(sf.shard.index, 2);
    EXPECT_EQ(sf.shard.count, 3);
    EXPECT_EQ(sf.total, 7u);
    EXPECT_EQ(sf.key, key);
    EXPECT_EQ(sf.campaigns.size(), shardIndices(7, shard).size());
    ASSERT_EQ(sf.campaigns.size(), mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
        EXPECT_EQ(sf.campaigns[i], campaignJson(mine[i]));

    const std::string good = slurp(path);
    const auto tamper = [&](const std::string &from, const std::string &to) {
        std::string bytes = good;
        const std::size_t pos = bytes.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        bytes.replace(pos, from.size(), to);
        spit(path, bytes);
    };

    // Flip one byte inside a campaign line: the result digest check
    // must refuse the file.
    tamper("\"cycles\": 1", "\"cycles\": 9");
    EXPECT_FALSE(readShardFile(path.string(), &sf, &error));
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // The digest covers only the campaign lines, so an edited shard line
    // still verifies; the reader bounds it itself. A count of 2^32 + 3
    // would truncate to 3.
    tamper("\"count\": 3", "\"count\": 4294967299");
    EXPECT_FALSE(readShardFile(path.string(), &sf, &error));
    EXPECT_NE(error.find("malformed shard line"), std::string::npos)
        << error;
    // A total of 10^15 claims ~3 * 10^14 owned cells for two campaigns.
    tamper("\"total\": 7", "\"total\": 1000000000000000");
    EXPECT_FALSE(readShardFile(path.string(), &sf, &error));
    EXPECT_NE(error.find("1000000000000000"), std::string::npos) << error;
}

TEST(Shard, MergedDocumentIsBitIdenticalToMonolithic)
{
    const fs::path base = scratchDir("shard_merge");
    const fs::path dir = base / "shards";  // only shard files live here
    fs::create_directories(dir);
    const std::size_t total = 7;
    const int count = 3;  // ragged: shard sizes 3, 2, 2
    const std::vector<CampaignSpec> specs = cheapGrid(total);
    const std::vector<CampaignResult> all = syntheticResults(total);

    const fs::path mono = base / "mono.json";
    ASSERT_TRUE(writeCampaignJson(mono.string(), "tpnet_test", all));
    writeAllShards(dir, specs, all, count);

    const fs::path merged = dir / "merged.json";
    std::ostringstream log;
    const int rc = mergeShards(dir.string(), "tpnet_test", specs,
                               merged.string(), log);
    EXPECT_EQ(rc, 1) << log.str();  // synthetic set has failures
    EXPECT_EQ(slurp(merged), slurp(mono));
}

TEST(Shard, MergeRejectsMissingDuplicateStaleAndForeign)
{
    const fs::path dir = scratchDir("shard_merge_bad");
    const std::vector<CampaignSpec> specs = cheapGrid(5);
    const std::vector<fs::path> paths =
        writeAllShards(dir, specs, syntheticResults(5), 2);
    const fs::path merged = dir / "merged.json";

    // Missing shard.
    const std::string shard1 = slurp(paths[1]);
    fs::remove(paths[1]);
    std::ostringstream log1;
    EXPECT_EQ(mergeShards(dir.string(), "tpnet_test", specs,
                          merged.string(), log1),
              2);
    EXPECT_NE(log1.str().find("missing"), std::string::npos)
        << log1.str();
    spit(paths[1], shard1);

    // Duplicate shard (same index under another file name).
    spit(dir / "shard-1-copy.json", shard1);
    std::ostringstream log2;
    EXPECT_EQ(mergeShards(dir.string(), "tpnet_test", specs,
                          merged.string(), log2),
              2);
    EXPECT_NE(log2.str().find("more than once"), std::string::npos)
        << log2.str();
    fs::remove(dir / "shard-1-copy.json");

    // Stale shard: the merger's grid changed a cell shard 0 owns.
    std::vector<CampaignSpec> changed = specs;
    changed[0].cfg.load += 0.01;
    std::ostringstream log3;
    EXPECT_EQ(mergeShards(dir.string(), "tpnet_test", changed,
                          merged.string(), log3),
              2);
    EXPECT_NE(log3.str().find("key mismatch"), std::string::npos)
        << log3.str();

    // Stale total: shard 0/2 owns cells 0, 2, 4 of 5 and of 6 cells, so
    // a file claiming 6 reads cleanly; the merger refuses it before
    // sizing anything by the claimed total.
    const std::string shard0 = slurp(paths[0]);
    ASSERT_TRUE(writeShardJson(paths[0].string(), "tpnet_test", {0, 2},
                               6, shardKey(specs, {0, 2}),
                               ownedResults(syntheticResults(5), {0, 2})));
    std::ostringstream log5;
    EXPECT_EQ(mergeShards(dir.string(), "tpnet_test", specs,
                          merged.string(), log5),
              2);
    EXPECT_NE(log5.str().find("total 6"), std::string::npos)
        << log5.str();
    spit(paths[0], shard0);

    // Foreign tool.
    std::ostringstream log4;
    EXPECT_EQ(mergeShards(dir.string(), "tpnet_other", specs,
                          merged.string(), log4),
              2);
    EXPECT_FALSE(fs::exists(merged));
}

TEST(Shard, RealCampaignMergeMatchesMonolithicRun)
{
    const fs::path base = scratchDir("shard_real");
    const fs::path dir = base / "shards";  // only shard files live here
    fs::create_directories(dir);
    const std::size_t total = 4;
    const int count = 3;  // ragged on purpose: 2 + 1 + 1
    const std::vector<CampaignSpec> specs = cheapGrid(total);

    const std::vector<CampaignResult> mono = runCampaigns(specs, 2);
    const fs::path mono_path = base / "mono.json";
    ASSERT_TRUE(
        writeCampaignJson(mono_path.string(), "tpnet_test", mono));

    for (int i = 0; i < count; ++i) {
        const ShardSpec shard{i, count};
        std::vector<CampaignSpec> mine;
        for (std::size_t idx : shardIndices(total, shard))
            mine.push_back(specs[idx]);
        const fs::path path =
            dir / ("shard-" + std::to_string(i) + ".json");
        ASSERT_TRUE(writeShardJson(path.string(), "tpnet_test", shard,
                                   total, shardKey(specs, shard),
                                   runCampaigns(mine, 1)));
    }

    const fs::path merged = dir / "merged.json";
    std::ostringstream log;
    const int rc = mergeShards(dir.string(), "tpnet_test", specs,
                               merged.string(), log);
    EXPECT_LE(rc, 1) << log.str();
    EXPECT_EQ(slurp(merged), slurp(mono_path))
        << "sharded + merged document differs from the monolithic run";
}

} // namespace
} // namespace tpnet
