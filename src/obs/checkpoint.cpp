#include "obs/checkpoint.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

namespace tpnet::obs {

namespace {

constexpr char checkpointMagic[4] = {'T', 'P', 'C', 'K'};
constexpr std::size_t checkpointHeaderSize = 40;

void
putU16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Parse header bytes into @p info; empty string on success. */
std::string
parseCheckpointHeader(const std::uint8_t *hdr, CheckpointFileInfo *info)
{
    if (std::memcmp(hdr, checkpointMagic, 4) != 0)
        return "not a tpnet checkpoint (bad magic)";
    info->version = getU16(hdr + 4);
    info->flags = getU16(hdr + 6);
    info->payloadSize = getU64(hdr + 8);
    info->payloadDigest = getU64(hdr + 16);
    info->configDigest = getU64(hdr + 24);
    if (info->version != checkpointFormatVersion) {
        std::ostringstream os;
        os << "unsupported checkpoint version " << info->version
           << " (reader supports " << checkpointFormatVersion << ")";
        return os.str();
    }
    return {};
}

} // namespace

void
CkWriter::u8(std::uint8_t &v)
{
    payload_.push_back(v);
}

void
CkWriter::u16(std::uint16_t &v)
{
    for (int i = 0; i < 2; ++i)
        payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
CkWriter::u32(std::uint32_t &v)
{
    for (int i = 0; i < 4; ++i)
        payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
CkWriter::u64(std::uint64_t &v)
{
    for (int i = 0; i < 8; ++i)
        payload_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
CkWriter::i32(std::int32_t &v)
{
    auto u = static_cast<std::uint32_t>(v);
    u32(u);
}

void
CkWriter::i64(std::int64_t &v)
{
    auto u = static_cast<std::uint64_t>(v);
    u64(u);
}

void
CkWriter::f64(double &v)
{
    // Bit-pattern transport: restore reproduces the exact double, so
    // folded statistics stay bit-identical across a round trip.
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    u64(u);
}

void
CkWriter::b(bool &v)
{
    std::uint8_t u = v ? 1 : 0;
    u8(u);
}

void
CkWriter::str(std::string &v)
{
    auto n = static_cast<std::uint64_t>(v.size());
    u64(n);
    payload_.insert(payload_.end(), v.begin(), v.end());
}

std::uint64_t
CkWriter::payloadDigest() const
{
    return fnv1a64(payload_.data(), payload_.size());
}

void
CkWriter::writeTo(std::ostream &os, std::uint64_t config_digest) const
{
    std::uint8_t hdr[checkpointHeaderSize] = {};
    std::memcpy(hdr, checkpointMagic, 4);
    putU16(hdr + 4, checkpointFormatVersion);
    putU16(hdr + 6, 0);
    putU64(hdr + 8, payload_.size());
    putU64(hdr + 16, payloadDigest());
    putU64(hdr + 24, config_digest);
    putU64(hdr + 32, 0);
    os.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
    os.write(reinterpret_cast<const char *>(payload_.data()),
             static_cast<std::streamsize>(payload_.size()));
}

CkReader::CkReader(std::istream &is)
{
    std::uint8_t hdr[checkpointHeaderSize];
    is.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(hdr))) {
        error_ = "truncated checkpoint header";
        return;
    }
    error_ = parseCheckpointHeader(hdr, &info_);
    if (!error_.empty())
        return;
    payload_.resize(info_.payloadSize);
    is.read(reinterpret_cast<char *>(payload_.data()),
            static_cast<std::streamsize>(payload_.size()));
    const auto got = is.gcount();
    if (got != static_cast<std::streamsize>(payload_.size())) {
        std::ostringstream os;
        os << "truncated checkpoint payload (" << got << " of "
           << payload_.size() << " bytes)";
        error_ = os.str();
        return;
    }
    char extra;
    if (is.read(&extra, 1), is.gcount() != 0) {
        error_ = "trailing bytes after checkpoint payload";
        return;
    }
    const std::uint64_t digest = fnv1a64(payload_.data(), payload_.size());
    if (digest != info_.payloadDigest) {
        std::ostringstream os;
        os << "checkpoint payload digest mismatch (file " << std::hex
           << info_.payloadDigest << ", computed " << digest << ")";
        error_ = os.str();
    }
}

const std::uint8_t *
CkReader::take(std::size_t n)
{
    if (!ok())
        return nullptr;
    if (pos_ + n > payload_.size()) {
        std::ostringstream os;
        os << "checkpoint payload underrun at byte " << pos_
           << " (need " << n << " of " << payload_.size() << ")";
        error_ = os.str();
        return nullptr;
    }
    const std::uint8_t *p = payload_.data() + pos_;
    pos_ += n;
    return p;
}

void
CkReader::u8(std::uint8_t &v)
{
    const std::uint8_t *p = take(1);
    v = p ? p[0] : 0;
}

void
CkReader::u16(std::uint16_t &v)
{
    const std::uint8_t *p = take(2);
    v = p ? getU16(p) : 0;
}

void
CkReader::u32(std::uint32_t &v)
{
    const std::uint8_t *p = take(4);
    v = 0;
    if (p)
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
}

void
CkReader::u64(std::uint64_t &v)
{
    const std::uint8_t *p = take(8);
    v = p ? getU64(p) : 0;
}

void
CkReader::i32(std::int32_t &v)
{
    std::uint32_t u = 0;
    u32(u);
    v = static_cast<std::int32_t>(u);
}

void
CkReader::i64(std::int64_t &v)
{
    std::uint64_t u = 0;
    u64(u);
    v = static_cast<std::int64_t>(u);
}

void
CkReader::f64(double &v)
{
    std::uint64_t u = 0;
    u64(u);
    std::memcpy(&v, &u, sizeof(v));
}

void
CkReader::b(bool &v)
{
    std::uint8_t u = 0;
    u8(u);
    v = u != 0;
}

void
CkReader::str(std::string &v)
{
    std::uint64_t n = 0;
    u64(n);
    v.clear();
    const std::uint8_t *p = take(static_cast<std::size_t>(n));
    if (p)
        v.assign(reinterpret_cast<const char *>(p),
                 static_cast<std::size_t>(n));
}

void
CkReader::finish()
{
    if (!ok())
        return;
    if (pos_ != payload_.size()) {
        std::ostringstream os;
        os << "checkpoint payload overrun: " << payload_.size() - pos_
           << " unread byte(s)";
        error_ = os.str();
    }
}

void
CkReader::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why;
}

bool
readCheckpointInfo(std::istream &is, CheckpointFileInfo *info,
                   std::string *error)
{
    std::uint8_t hdr[checkpointHeaderSize];
    is.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(hdr))) {
        *error = "truncated checkpoint header";
        return false;
    }
    *error = parseCheckpointHeader(hdr, info);
    return error->empty();
}

void
DigestTee::onEvent(const TraceEvent &ev)
{
    digest_ = foldTraceEvent(ev, digest_);
    ++records_;
}

void
DigestTee::reset(Cycle from)
{
    digest_ = 14695981039346656037ull;
    records_ = 0;
    tailFrom_ = from;
}

} // namespace tpnet::obs
