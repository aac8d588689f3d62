#include "chaos/shard.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "chaos/report.hpp"
#include "obs/trace_format.hpp"
#include "sim/options.hpp"

namespace tpnet {
namespace chaos {

namespace {

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return obs::fnv1a64(b, sizeof(b), h);
}

std::uint64_t
foldI64(std::uint64_t h, long long v)
{
    return foldU64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t
foldF64(std::uint64_t h, double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return foldU64(h, u);
}

/** Fold a config value: numbers and enums by value, classes field by
 *  field after their count. */
template <typename T>
std::uint64_t
foldValue(std::uint64_t h, const T &v)
{
    if constexpr (std::is_same_v<T, double>) {
        return foldF64(h, v);
    } else if constexpr (std::is_same_v<T, std::vector<TrafficClassConfig>>) {
        h = foldU64(h, v.size());
        for (const TrafficClassConfig &tc : v)
            TrafficClassConfig::forEachField(
                [&](const auto &k) { h = foldValue(h, tc.*k.member); });
        return h;
    } else {
        return foldU64(h, static_cast<std::uint64_t>(v));
    }
}

std::uint64_t
foldTag(const char *tag)
{
    return obs::fnv1a64(tag, std::strlen(tag));
}

/** Parse the number right after @p tag inside @p line, up to the next
 *  ',', ' ' or '}'. */
template <typename T>
bool
intAfter(const std::string &line, const std::string &tag, T *out)
{
    const auto pos = line.find(tag);
    if (pos == std::string::npos)
        return false;
    const std::size_t start = pos + tag.size();
    return parseNumber(
        line.substr(start, line.find_first_of(", }", start) - start), out);
}

/** Parse a quoted hex value right after @p tag. */
bool
hexAfter(const std::string &line, const std::string &tag,
         std::uint64_t *out)
{
    const auto pos = line.find(tag + '"');
    if (pos == std::string::npos)
        return false;
    const std::size_t i = pos + tag.size() + 1;
    const auto close = line.find('"', i);
    if (close == std::string::npos)
        return false;
    const char *last = line.data() + close;
    const auto [ptr, ec] = std::from_chars(line.data() + i, last, *out, 16);
    return ec == std::errc() && ptr == last;
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec *out)
{
    const auto slash = text.find('/');
    int index = 0;
    int count = 0;
    if (slash == std::string::npos ||
        !parseNumber(text.substr(0, slash), &index) ||
        !parseNumber(text.substr(slash + 1), &count) || index < 0 ||
        index >= count)
        return false;
    out->index = index;
    out->count = count;
    return true;
}

std::vector<std::size_t>
shardIndices(std::size_t total, const ShardSpec &shard)
{
    std::vector<std::size_t> out;
    for (std::size_t i = static_cast<std::size_t>(shard.index); i < total;
         i += static_cast<std::size_t>(shard.count))
        out.push_back(i);
    return out;
}

std::uint64_t
configDigest(const SimConfig &cfg)
{
    // Versioned canonical encoding: every field of the config table but
    // the engine switch (checkpoints and shard files are engine-
    // agnostic). Bump the tag when the table changes so old shard files
    // and checkpoints are refused, not misread.
    std::uint64_t h = foldTag("tpnet-config-v5");
    forEachConfigField([&](const auto &f) {
        using T = typename std::remove_cvref_t<decltype(f)>::Type;
        if constexpr (std::is_same_v<T, bool>) {
            if (f.member == &SimConfig::eventEngine)
                return;
        }
        h = foldValue(h, cfg.*f.member);
    });
    return h;
}

std::uint64_t
campaignSpecDigest(const CampaignSpec &spec)
{
    std::uint64_t h = foldTag("tpnet-cell-v1");
    h = foldU64(h, configDigest(spec.cfg));
    h = foldU64(h, spec.seed);
    h = foldU64(h, spec.injectCycles);
    h = foldU64(h, spec.drainCycles);
    h = foldU64(h, spec.faults.horizon);
    h = foldU64(h, spec.faults.earliest);
    h = foldI64(h, spec.faults.nodeKills);
    h = foldI64(h, spec.faults.linkKills);
    h = foldI64(h, spec.faults.intermittents);
    h = foldU64(h, spec.faults.downMin);
    h = foldU64(h, spec.faults.downMax);
    h = foldU64(h, spec.scriptedFaults.size());
    for (const FaultEvent &ev : spec.scriptedFaults) {
        h = foldU64(h, ev.at);
        h = foldI64(h, static_cast<int>(ev.kind));
        h = foldI64(h, ev.node);
        h = foldI64(h, ev.port);
        h = foldU64(h, ev.downFor);
    }
    h = foldU64(h, spec.watchdog.globalStallBound);
    h = foldU64(h, spec.watchdog.msgStallBound);
    h = foldU64(h, spec.watchdog.validateEvery);
    h = foldU64(h, spec.watchdog.conserveEvery);
    h = foldU64(h, spec.watchdog.maxViolations);
    h = foldI64(h, spec.injectSkipKillBug);
    h = foldI64(h, spec.verifyCwg);
    return h;
}

std::uint64_t
shardKey(const std::vector<CampaignSpec> &specs, const ShardSpec &shard)
{
    std::uint64_t h = foldTag("tpnet-shard-v1");
    h = foldI64(h, shard.index);
    h = foldI64(h, shard.count);
    h = foldU64(h, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (shardOwns(shard, i))
            h = foldU64(h, campaignSpecDigest(specs[i]));
    return h;
}

std::uint64_t
resultDigest(const std::vector<std::string> &campaign_jsons)
{
    std::uint64_t h = foldTag("tpnet-shard-result-v1");
    for (const std::string &line : campaign_jsons)
        h = obs::fnv1a64(line.data(), line.size(), h);
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
writeShardJson(const std::string &path, const std::string &tool,
               const ShardSpec &shard, std::size_t total,
               std::uint64_t key,
               const std::vector<CampaignResult> &results)
{
    const std::vector<std::string> lines = campaignLines(results);
    std::ostringstream shardLine;
    shardLine << "\"shard\": { \"index\": " << shard.index
              << ", \"count\": " << shard.count << ", \"total\": " << total
              << ", \"key\": \"" << hex64(key)
              << "\", \"result_digest\": \"" << hex64(resultDigest(lines))
              << "\" }";
    return writeCampaignJson(path, tool, lines, shardLine.str());
}

bool
readShardFile(const std::string &path, ShardFile *out, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        *error = "cannot open " + path;
        return false;
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);

    *out = ShardFile{};
    std::size_t campaignsAt = lines.size() + 1;
    bool sawShard = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line.rfind("  \"tool\": \"", 0) == 0) {
            const auto open = line.find('"', 10);
            const auto close = line.find('"', open + 1);
            if (close == std::string::npos) {
                *error = path + ": malformed tool line";
                return false;
            }
            out->tool = line.substr(open + 1, close - open - 1);
        } else if (line.rfind("  \"shard\": {", 0) == 0) {
            std::uint64_t total = 0;
            if (!intAfter(line, "\"index\": ", &out->shard.index) ||
                !intAfter(line, "\"count\": ", &out->shard.count) ||
                !intAfter(line, "\"total\": ", &total) ||
                !hexAfter(line, "\"key\": ", &out->key) ||
                !hexAfter(line, "\"result_digest\": ",
                          &out->storedResultDigest) ||
                out->shard.index < 0 ||
                out->shard.index >= out->shard.count) {
                *error = path + ": malformed shard line";
                return false;
            }
            out->total = static_cast<std::size_t>(total);
            sawShard = true;
        } else if (line == "  \"campaigns\": [") {
            campaignsAt = i + 1;
            break;
        }
    }
    if (out->tool.empty() || !sawShard || campaignsAt > lines.size()) {
        *error = path + ": missing tool/shard/campaigns";
        return false;
    }
    for (std::size_t i = campaignsAt; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line == "  ]")
            break;
        if (line.rfind("    {", 0) != 0) {
            *error = path + ": malformed campaign line " +
                     std::to_string(i + 1);
            return false;
        }
        std::string obj = line.substr(4);
        if (!obj.empty() && obj.back() == ',')
            obj.pop_back();
        out->campaigns.push_back(std::move(obj));
    }
    // The size of shardIndices(total, shard), computed without building
    // a list as long as an untrusted total.
    const std::size_t index = static_cast<std::size_t>(out->shard.index);
    const std::size_t owned =
        out->total > index
            ? (out->total - index - 1) /
                      static_cast<std::size_t>(out->shard.count) +
                  1
            : 0;
    if (out->campaigns.size() != owned) {
        *error = path + ": " + std::to_string(out->campaigns.size()) +
                 " campaigns, but shard " +
                 std::to_string(out->shard.index) + "/" +
                 std::to_string(out->shard.count) + " owns " +
                 std::to_string(owned) + " of total " +
                 std::to_string(out->total);
        return false;
    }
    const std::uint64_t digest = resultDigest(out->campaigns);
    if (digest != out->storedResultDigest) {
        *error = path + ": result digest mismatch (file " +
                 hex64(out->storedResultDigest) + ", computed " +
                 hex64(digest) + ")";
        return false;
    }
    return true;
}

int
mergeShards(const std::string &dir, const std::string &tool,
            const std::vector<CampaignSpec> &specs,
            const std::string &out_path, std::ostream &log)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::string> paths;
    const std::string outName = fs::path(out_path).filename().string();
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".json") != 0 ||
            name == outName)
            continue;
        paths.push_back(entry.path().string());
    }
    if (ec) {
        log << "merge-shards: cannot list " << dir << ": " << ec.message()
            << "\n";
        return 2;
    }
    if (paths.empty()) {
        log << "merge-shards: no shard files in " << dir << "\n";
        return 2;
    }
    std::sort(paths.begin(), paths.end());

    std::vector<ShardFile> shards;
    for (const std::string &path : paths) {
        ShardFile sf;
        std::string error;
        if (!readShardFile(path, &sf, &error)) {
            log << "merge-shards: " << error << "\n";
            return 2;
        }
        if (sf.tool != tool) {
            log << "merge-shards: " << path << ": shard tool \"" << sf.tool
                << "\" does not match \"" << tool << "\"\n";
            return 2;
        }
        if (sf.total != specs.size()) {
            log << "merge-shards: " << path << ": total " << sf.total
                << " does not match the " << specs.size()
                << " campaign(s) of this invocation\n";
            return 2;
        }
        if (!shards.empty() &&
            sf.shard.count != shards.front().shard.count) {
            log << "merge-shards: inconsistent shard set (shard counts "
                << shards.front().shard.count << " and " << sf.shard.count
                << ")\n";
            return 2;
        }
        const std::uint64_t want = shardKey(specs, sf.shard);
        if (sf.key != want) {
            log << "merge-shards: shard " << sf.shard.index << "/"
                << sf.shard.count << " key mismatch (file "
                << hex64(sf.key) << ", grid " << hex64(want)
                << ") — stale or foreign shard\n";
            return 2;
        }
        shards.push_back(std::move(sf));
    }

    // Each index exactly once: sorted by index, a repeat sits next to
    // its twin and the first gap is the first missing shard.
    std::sort(shards.begin(), shards.end(),
              [](const ShardFile &a, const ShardFile &b) {
                  return a.shard.index < b.shard.index;
              });
    const int count = shards.front().shard.count;
    for (std::size_t i = 1; i < shards.size(); ++i) {
        if (shards[i].shard.index == shards[i - 1].shard.index) {
            log << "merge-shards: shard " << shards[i].shard.index << "/"
                << count << " present more than once\n";
            return 2;
        }
    }
    if (shards.size() != static_cast<std::size_t>(count)) {
        std::size_t missing = 0;
        while (missing < shards.size() &&
               shards[missing].shard.index == static_cast<int>(missing))
            ++missing;
        log << "merge-shards: shard " << missing << "/" << count
            << " missing\n";
        return 2;
    }

    // Every shard holds exactly the cells it owns (readShardFile checked
    // the count), so the j-th campaign of shard i is cell i + j * count.
    std::vector<std::string> byCell(specs.size());
    for (ShardFile &sf : shards)
        for (std::size_t j = 0; j < sf.campaigns.size(); ++j)
            byCell[static_cast<std::size_t>(sf.shard.index) +
                   j * static_cast<std::size_t>(count)] =
                std::move(sf.campaigns[j]);

    if (!writeCampaignJson(out_path, tool, byCell)) {
        log << "merge-shards: cannot write " << out_path << "\n";
        return 2;
    }

    std::size_t failed = 0;
    for (const std::string &obj : byCell)
        if (obj.find("\"passed\": false") != std::string::npos)
            ++failed;
    log << "merge-shards: merged " << byCell.size() << " campaigns from "
        << shards.size() << " shard(s) into " << out_path << " ("
        << failed << " failed)\n";
    return failed ? 1 : 0;
}

} // namespace chaos
} // namespace tpnet
