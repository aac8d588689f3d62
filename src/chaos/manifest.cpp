#include "chaos/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "chaos/report.hpp"
#include "obs/trace_format.hpp"

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

std::uint64_t
foldTag(const char *tag)
{
    return obs::fnv1a64(tag, std::strlen(tag));
}

/** Parse a decimal integer right after @p tag inside @p line. */
bool
intAfter(const std::string &line, const std::string &tag, long long *out)
{
    const auto pos = line.find(tag);
    if (pos == std::string::npos)
        return false;
    const char *p = line.c_str() + pos + tag.size();
    char *end = nullptr;
    const long long v = std::strtoll(p, &end, 10);
    if (end == p)
        return false;
    *out = v;
    return true;
}

/** Parse a quoted 16-digit hex value right after @p tag. */
bool
hexAfter(const std::string &line, const std::string &tag,
         std::uint64_t *out)
{
    const auto pos = line.find(tag);
    if (pos == std::string::npos)
        return false;
    std::size_t i = pos + tag.size();
    if (i >= line.size() || line[i] != '"')
        return false;
    ++i;
    const auto close = line.find('"', i);
    if (close == std::string::npos || close == i)
        return false;
    const std::string digits = line.substr(i, close - i);
    char *end = nullptr;
    *out = std::strtoull(digits.c_str(), &end, 16);
    return end == digits.c_str() + digits.size();
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec *out)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (i == slash)
            continue;
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            return false;
    }
    const long long index = std::strtoll(text.c_str(), nullptr, 10);
    const long long count =
        std::strtoll(text.c_str() + slash + 1, nullptr, 10);
    if (count < 1 || index < 0 || index >= count)
        return false;
    out->index = static_cast<int>(index);
    out->count = static_cast<int>(count);
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
    // Versioned canonical encoding: every behavior-relevant field in
    // declaration order. Bump the tag when fields are added/removed so
    // old cache entries and checkpoints are invalidated, not misread.
    std::uint64_t h = foldTag("tpnet-config-v3");
    h = foldI64(h, static_cast<int>(cfg.topology));
    h = foldI64(h, cfg.k);
    h = foldI64(h, cfg.n);
    h = foldI64(h, cfg.wrap);
    h = foldI64(h, cfg.expressGap);
    h = foldI64(h, cfg.dfRouters);
    h = foldI64(h, cfg.dfGlobal);
    h = foldI64(h, cfg.adaptiveVcs);
    h = foldI64(h, cfg.escapeVcs);
    h = foldI64(h, cfg.bufDepth);
    h = foldI64(h, cfg.msgLength);
    h = foldI64(h, static_cast<int>(cfg.protocol));
    h = foldI64(h, cfg.scoutK);
    h = foldI64(h, cfg.misrouteLimit);
    h = foldI64(h, cfg.maxRetries);
    h = foldI64(h, cfg.searchBudgetDiameters);
    h = foldI64(h, cfg.stallLimit);
    h = foldI64(h, cfg.retryBackoff);
    h = foldI64(h, static_cast<int>(cfg.pattern));
    h = foldF64(h, cfg.load);
    h = foldI64(h, cfg.injQueueLimit);
    h = foldI64(h, static_cast<std::int64_t>(cfg.trafficClasses.size()));
    for (const TrafficClassConfig &tc : cfg.trafficClasses) {
        h = foldI64(h, static_cast<int>(tc.pattern));
        h = foldF64(h, tc.load);
        h = foldI64(h, tc.msgLength);
        h = foldI64(h, tc.priority);
        h = foldF64(h, tc.hotspotFraction);
        h = foldI64(h, tc.hotspotCount);
        h = foldI64(h, tc.burstLen);
        h = foldF64(h, tc.burstDuty);
        h = foldI64(h, tc.outstanding);
        h = foldI64(h, tc.replyLength);
    }
    h = foldI64(h, cfg.staticNodeFaults);
    h = foldI64(h, cfg.staticLinkFaults);
    h = foldF64(h, cfg.dynamicNodeFaults);
    h = foldF64(h, cfg.dynamicLinkFaults);
    h = foldF64(h, cfg.intermittentFaults);
    h = foldI64(h, cfg.intermittentDownCycles);
    h = foldI64(h, cfg.tailAck);
    h = foldI64(h, cfg.hardwareAcks);
    h = foldI64(h, cfg.markUnsafe);
    h = foldI64(h, cfg.protectPerimeter);
    h = foldI64(h, cfg.metricsPeriod);
    h = foldU64(h, cfg.seed);
    h = foldU64(h, cfg.warmup);
    h = foldU64(h, cfg.measure);
    h = foldU64(h, cfg.drain);
    h = foldU64(h, cfg.watchdog);
    h = foldI64(h, cfg.verifyCwg);
    h = foldI64(h, cfg.recoveryMode);
    h = foldI64(h, static_cast<int>(cfg.victimPolicy));
    h = foldI64(h, cfg.maxHealAttempts);
    h = foldI64(h, cfg.healBackoffBase);
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
               const std::vector<std::size_t> &indices,
               const std::vector<CampaignResult> &results)
{
    std::vector<std::string> lines;
    lines.reserve(results.size());
    for (const CampaignResult &r : results)
        lines.push_back(campaignJson(r));

    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"tool\": \"" << jsonEscape(tool) << "\",\n"
       << "  \"shard\": { \"index\": " << shard.index
       << ", \"count\": " << shard.count
       << ", \"total\": " << total
       << ", \"key\": \"" << hex64(key)
       << "\", \"result_digest\": \"" << hex64(resultDigest(lines))
       << "\" },\n  \"indices\": [";
    for (std::size_t i = 0; i < indices.size(); ++i)
        os << (i ? ", " : "") << indices[i];
    os << "],\n  \"campaigns\": [\n";
    for (std::size_t i = 0; i < lines.size(); ++i)
        os << "    " << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
    os << "  ]\n}\n";
    return static_cast<bool>(os);
}

bool
writeManifest(const std::string &path, const std::string &tool,
              int count, const std::vector<CampaignSpec> &specs)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"tool\": \"" << jsonEscape(tool) << "\",\n"
       << "  \"total\": " << specs.size() << ",\n"
       << "  \"count\": " << count << ",\n  \"shards\": [\n";
    for (int i = 0; i < count; ++i) {
        const ShardSpec shard{i, count};
        os << "    { \"index\": " << i << ", \"count\": " << count
           << ", \"key\": \"" << hex64(shardKey(specs, shard))
           << "\", \"items\": " << shardIndices(specs.size(), shard).size()
           << " }" << (i + 1 < count ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    return static_cast<bool>(os);
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
    std::size_t campaignsAt = lines.size();
    bool sawShard = false, sawIndices = false;
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
            long long index = -1, count = -1, total = -1;
            if (!intAfter(line, "\"index\": ", &index) ||
                !intAfter(line, "\"count\": ", &count) ||
                !intAfter(line, "\"total\": ", &total) ||
                !hexAfter(line, "\"key\": ", &out->key) ||
                !hexAfter(line, "\"result_digest\": ",
                          &out->storedResultDigest) ||
                count < 1 || index < 0 || index >= count || total < 0) {
                *error = path + ": malformed shard line";
                return false;
            }
            out->shard.index = static_cast<int>(index);
            out->shard.count = static_cast<int>(count);
            out->total = static_cast<std::size_t>(total);
            sawShard = true;
        } else if (line.rfind("  \"indices\": [", 0) == 0) {
            const auto open = line.find('[');
            const auto close = line.find(']', open);
            if (close == std::string::npos) {
                *error = path + ": malformed indices line";
                return false;
            }
            std::istringstream items(
                line.substr(open + 1, close - open - 1));
            for (std::string item; std::getline(items, item, ',');) {
                char *end = nullptr;
                const unsigned long long v =
                    std::strtoull(item.c_str(), &end, 10);
                if (end == item.c_str()) {
                    *error = path + ": malformed index list";
                    return false;
                }
                out->indices.push_back(static_cast<std::size_t>(v));
            }
            sawIndices = true;
        } else if (line == "  \"campaigns\": [") {
            campaignsAt = i + 1;
            break;
        }
    }
    if (out->tool.empty() || !sawShard || !sawIndices ||
        campaignsAt > lines.size()) {
        *error = path + ": missing tool/shard/indices/campaigns";
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
    if (out->campaigns.size() != out->indices.size()) {
        *error = path + ": " + std::to_string(out->campaigns.size()) +
                 " campaigns but " + std::to_string(out->indices.size()) +
                 " indices";
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
            const std::vector<std::uint64_t> &expected_keys,
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
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        if (name == "manifest.json" || name == outName)
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
        shards.push_back(std::move(sf));
    }

    const ShardFile &first = shards.front();
    if (!tool.empty() && first.tool != tool) {
        log << "merge-shards: shard tool \"" << first.tool
            << "\" does not match \"" << tool << "\"\n";
        return 2;
    }
    std::vector<bool> seen(static_cast<std::size_t>(first.shard.count),
                           false);
    for (const ShardFile &sf : shards) {
        if (sf.tool != first.tool || sf.shard.count != first.shard.count ||
            sf.total != first.total) {
            log << "merge-shards: inconsistent shard set (tool/count/"
                   "total differ across files)\n";
            return 2;
        }
        if (seen[static_cast<std::size_t>(sf.shard.index)]) {
            log << "merge-shards: shard " << sf.shard.index << "/"
                << sf.shard.count << " present more than once\n";
            return 2;
        }
        seen[static_cast<std::size_t>(sf.shard.index)] = true;
        if (!expected_keys.empty()) {
            if (expected_keys.size() !=
                static_cast<std::size_t>(first.shard.count)) {
                log << "merge-shards: expected " << expected_keys.size()
                    << " keys for " << first.shard.count << " shards\n";
                return 2;
            }
            const std::uint64_t want =
                expected_keys[static_cast<std::size_t>(sf.shard.index)];
            if (sf.key != want) {
                log << "merge-shards: shard " << sf.shard.index << "/"
                    << sf.shard.count << " key mismatch (file "
                    << hex64(sf.key) << ", grid " << hex64(want)
                    << ") — stale or foreign shard\n";
                return 2;
            }
        }
    }
    for (int i = 0; i < first.shard.count; ++i) {
        if (!seen[static_cast<std::size_t>(i)]) {
            log << "merge-shards: shard " << i << "/" << first.shard.count
                << " missing\n";
            return 2;
        }
    }

    std::vector<std::string> byCell(first.total);
    std::vector<bool> cellSeen(first.total, false);
    for (const ShardFile &sf : shards) {
        for (std::size_t j = 0; j < sf.indices.size(); ++j) {
            const std::size_t cell = sf.indices[j];
            if (cell >= first.total) {
                log << "merge-shards: cell index " << cell
                    << " out of range (total " << first.total << ")\n";
                return 2;
            }
            if (cellSeen[cell]) {
                log << "merge-shards: cell " << cell
                    << " present in more than one shard\n";
                return 2;
            }
            if (!shardOwns(sf.shard, cell)) {
                log << "merge-shards: cell " << cell
                    << " does not belong to shard " << sf.shard.index
                    << "/" << sf.shard.count << "\n";
                return 2;
            }
            cellSeen[cell] = true;
            byCell[cell] = sf.campaigns[j];
        }
    }
    for (std::size_t i = 0; i < first.total; ++i) {
        if (!cellSeen[i]) {
            log << "merge-shards: cell " << i << " missing\n";
            return 2;
        }
    }

    // Reassemble through the exact writeCampaignJson framing so the
    // merged document is byte-identical to the monolithic run's --json.
    std::ofstream os(out_path);
    if (!os) {
        log << "merge-shards: cannot write " << out_path << "\n";
        return 2;
    }
    os << "{\n  \"tool\": \"" << jsonEscape(first.tool)
       << "\",\n  \"campaigns\": [";
    for (std::size_t i = 0; i < byCell.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << byCell[i];
    os << "\n  ]\n}\n";
    if (!os) {
        log << "merge-shards: write failed for " << out_path << "\n";
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

int
probeShardCount(const std::string &dir, const std::string &out_path)
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
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        if (name == "manifest.json" || name == outName)
            continue;
        paths.push_back(entry.path().string());
    }
    if (ec)
        return 0;
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        ShardFile sf;
        std::string error;
        if (readShardFile(path, &sf, &error))
            return sf.shard.count;
    }
    return 0;
}

std::string
cacheFileName(const std::string &tool, const ShardSpec &shard,
              std::uint64_t key)
{
    std::ostringstream os;
    os << tool << "-shard" << shard.index << "of" << shard.count << "-"
       << hex64(key) << ".json";
    return os.str();
}

bool
cacheLookup(const std::string &cache_dir, const std::string &tool,
            const ShardSpec &shard, std::uint64_t key, ShardFile *out)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::path(cache_dir) / cacheFileName(tool, shard, key);
    std::error_code ec;
    if (!fs::is_regular_file(path, ec))
        return false;
    std::string error;
    if (!readShardFile(path.string(), out, &error))
        return false;
    return out->tool == tool && out->key == key &&
           out->shard.index == shard.index &&
           out->shard.count == shard.count;
}

bool
cacheStore(const std::string &cache_dir, const std::string &tool,
           const ShardSpec &shard, std::uint64_t key,
           const std::string &shard_json_path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    if (ec)
        return false;
    const fs::path dst =
        fs::path(cache_dir) / cacheFileName(tool, shard, key);
    fs::copy_file(shard_json_path, dst,
                  fs::copy_options::overwrite_existing, ec);
    return !ec;
}

} // namespace chaos
} // namespace tpnet
