#include "ckpt/serializer.hh"

#include <cstdio>

#include "sim/error.hh"
#include "sim/log.hh"

namespace imagine::ckpt
{

namespace
{

[[noreturn]] void
fail(const std::string &msg)
{
    throw SimError(SimErrorKind::Fatal, "checkpoint: " + msg);
}

std::vector<uint8_t>
readWholeFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fail("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> data(len > 0 ? static_cast<size_t>(len) : 0);
    size_t got = data.empty() ? 0 : std::fread(data.data(), 1,
                                               data.size(), f);
    std::fclose(f);
    if (got != data.size())
        fail("short read from " + path);
    return data;
}

} // namespace

void
Serializer::section(const std::string &name)
{
    sections_.push_back(Section{name, {}});
}

void
Serializer::raw(const void *p, size_t n)
{
    IMAGINE_ASSERT(!sections_.empty(),
                   "checkpoint write outside any section");
    if (n == 0)
        return;
    std::vector<uint8_t> &buf = sections_.back().payload;
    size_t off = buf.size();
    buf.resize(off + n);
    std::memcpy(buf.data() + off, p, n);
}

std::vector<uint8_t>
Serializer::finish() const
{
    std::vector<uint8_t> out;
    auto put = [&out](const void *p, size_t n) {
        size_t off = out.size();
        out.resize(off + n);
        std::memcpy(out.data() + off, p, n);
    };
    uint32_t magic = kMagic, version = kVersion;
    uint32_t count = static_cast<uint32_t>(sections_.size());
    put(&magic, sizeof(magic));
    put(&version, sizeof(version));
    put(&count, sizeof(count));
    for (const Section &s : sections_) {
        uint32_t nameLen = static_cast<uint32_t>(s.name.size());
        uint64_t payloadLen = s.payload.size();
        put(&nameLen, sizeof(nameLen));
        put(s.name.data(), s.name.size());
        put(&payloadLen, sizeof(payloadLen));
        put(s.payload.data(), s.payload.size());
    }
    return out;
}

void
Serializer::writeFile(const std::string &path) const
{
    std::vector<uint8_t> image = finish();
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fail("cannot create " + tmp);
    size_t put = image.empty()
                     ? 0
                     : std::fwrite(image.data(), 1, image.size(), f);
    bool ok = put == image.size() && std::fclose(f) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        fail("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fail("cannot rename " + tmp + " to " + path);
    }
}

Deserializer::Deserializer(std::vector<uint8_t> image, Context ctx)
    : ctx_(ctx), image_(std::move(image))
{
    size_t pos = 0;
    auto get = [this, &pos](void *p, size_t n) {
        if (pos + n > image_.size())
            fail("truncated file header");
        std::memcpy(p, image_.data() + pos, n);
        pos += n;
    };
    uint32_t magic = 0, count = 0;
    get(&magic, sizeof(magic));
    if (magic != kMagic)
        fail("bad magic (not a checkpoint file)");
    get(&version_, sizeof(version_));
    if (version_ != kVersion)
        fail(strfmt("format version %u, this build reads %u", version_,
                    kVersion));
    get(&count, sizeof(count));
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t nameLen = 0;
        uint64_t payloadLen = 0;
        get(&nameLen, sizeof(nameLen));
        if (pos + nameLen > image_.size())
            fail("truncated section name");
        std::string name(reinterpret_cast<const char *>(
                             image_.data() + pos),
                         nameLen);
        pos += nameLen;
        get(&payloadLen, sizeof(payloadLen));
        if (pos + payloadLen > image_.size())
            fail("truncated section " + name);
        index_.emplace(name, sections_.size());
        sections_.emplace_back(std::move(name),
                               Span{pos, pos + payloadLen});
        pos += payloadLen;
    }
}

Deserializer
Deserializer::fromFile(const std::string &path, Context ctx)
{
    return Deserializer(readWholeFile(path), ctx);
}

bool
Deserializer::hasSection(const std::string &name) const
{
    return index_.count(name) != 0;
}

void
Deserializer::section(const std::string &name)
{
    auto it = index_.find(name);
    if (it == index_.end())
        fail("missing section \"" + name + "\"");
    const Span &sp = sections_[it->second].second;
    cursor_ = sp.begin;
    sectionEnd_ = sp.end;
    current_ = name;
}

void
Deserializer::raw(void *p, size_t n)
{
    if (cursor_ + n > sectionEnd_)
        fail("read past end of section \"" + current_ + "\"");
    std::memcpy(p, image_.data() + cursor_, n);
    cursor_ += n;
}

size_t
Deserializer::checkedCount(uint64_t count, size_t elemSize) const
{
    if (elemSize != 0 &&
        count > (sectionEnd_ - cursor_) / elemSize)
        fail("oversized count in section \"" + current_ + "\"");
    return static_cast<size_t>(count);
}

std::string
Deserializer::str()
{
    size_t n = checkedCount(u64(), 1);
    std::string s(n, '\0');
    if (n)
        raw(s.data(), n);
    return s;
}

std::vector<RawSection>
readSections(const std::string &path)
{
    Deserializer d = Deserializer::fromFile(path);
    std::vector<RawSection> out;
    out.reserve(d.sections_.size());
    for (const auto &[name, span] : d.sections_)
        out.push_back(RawSection{
            name, std::vector<uint8_t>(
                      d.image_.begin() +
                          static_cast<std::ptrdiff_t>(span.begin),
                      d.image_.begin() +
                          static_cast<std::ptrdiff_t>(span.end))});
    return out;
}

} // namespace imagine::ckpt
