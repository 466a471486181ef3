/**
 * Unit-text artifact parsing (Store::encode -> decodeUnitText): CRLF
 * line endings must decode byte-identically, a malformed `key=`
 * header field must be FailedPrecondition (never a silent
 * primerKey=0 decode), trailing junk in the header is rejected, and a
 * non-ACGT strand line is a parse error, not an internal one.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/api.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 13);
    return data;
}

/** A valid unit-text artifact holding one known object. */
EncodedArtifact
sampleArtifact(uint64_t primer_key = 1)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(42);
    if (primer_key != 1)
        options.primerKey(primer_key);
    Result<Store> store = Store::open(options);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    EXPECT_TRUE(store->put("obj.bin", patternBytes(400, 3)).ok());
    Result<EncodedArtifact> artifact = store->encode();
    EXPECT_TRUE(artifact.ok()) << artifact.status().toString();
    return std::move(*artifact);
}

std::string
withCrlf(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + text.size() / 16);
    for (char c : text) {
        if (c == '\n')
            out += '\r';
        out += c;
    }
    return out;
}

/** Swap the artifact's header for an arbitrary line. */
std::string
withHeader(const EncodedArtifact &artifact, const std::string &header)
{
    std::string out = artifact.text();
    out.replace(0, out.find('\n'), header);
    return out;
}

} // namespace

TEST(ArtifactParsing, PlainUnitTextDecodesExactly)
{
    const EncodedArtifact artifact = sampleArtifact();
    Result<DecodedObjects> decoded = decodeUnitText(artifact.text());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
    ASSERT_EQ(decoded->files.size(), 1u);
    EXPECT_EQ(decoded->files[0].name, "obj.bin");
    EXPECT_EQ(decoded->files[0].data, patternBytes(400, 3));
}

// Regression: unit files that traveled through mail or a Windows
// editor carry \r\n. The '\r' must not poison the header's trailing
// field or the strand lines.
TEST(ArtifactParsing, CrlfUnitTextDecodesExactly)
{
    const EncodedArtifact artifact = sampleArtifact();
    Result<DecodedObjects> decoded =
        decodeUnitText(withCrlf(artifact.text()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
    ASSERT_EQ(decoded->files.size(), 1u);
    EXPECT_EQ(decoded->files[0].data, patternBytes(400, 3));
}

TEST(ArtifactParsing, CrlfWithNonDefaultKeyDecodesExactly)
{
    // The key= field is the LAST header field, so a trailing '\r' is
    // exactly where a sloppy parser would absorb it into the number.
    const EncodedArtifact artifact = sampleArtifact(77);
    EXPECT_NE(artifact.header.find(" key=77"), std::string::npos);
    Result<DecodedObjects> decoded =
        decodeUnitText(withCrlf(artifact.text()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
}

// Regression: sscanf's %llu accepted junk like "abc" by matching
// nothing and leaving primerKey at 0, which mis-frames every strand.
// Each malformed variant must be refused up front.
TEST(ArtifactParsing, MalformedKeyFieldIsFailedPrecondition)
{
    const EncodedArtifact artifact = sampleArtifact();
    const std::string malformed[] = {
        artifact.header + " key=abc",
        artifact.header + " key=",
        artifact.header + " key=-5",
        artifact.header + " key=12x",
        // ULLONG_MAX is 1.8e19; 23 nines overflow to ERANGE.
        artifact.header + " key=99999999999999999999999",
    };
    for (const std::string &header : malformed) {
        Result<DecodedObjects> decoded =
            decodeUnitText(withHeader(artifact, header));
        ASSERT_FALSE(decoded.ok()) << header;
        EXPECT_EQ(decoded.status().code(),
                  StatusCode::FailedPrecondition)
            << header << ": " << decoded.status().toString();
        EXPECT_NE(decoded.status().message().find("key="),
                  std::string::npos)
            << decoded.status().toString();
    }
}

TEST(ArtifactParsing, ValidKeyFieldRoundTrips)
{
    const EncodedArtifact artifact = sampleArtifact(77);
    Result<DecodedObjects> decoded = decodeUnitText(artifact.text());
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
    EXPECT_EQ(decoded->files[0].data, patternBytes(400, 3));
}

TEST(ArtifactParsing, TrailingHeaderJunkIsFailedPrecondition)
{
    const EncodedArtifact artifact = sampleArtifact();
    for (const char *junk : { " bogus=1", " extra", " key =7" }) {
        Result<DecodedObjects> decoded = decodeUnitText(
            withHeader(artifact, artifact.header + junk));
        ASSERT_FALSE(decoded.ok()) << junk;
        EXPECT_EQ(decoded.status().code(),
                  StatusCode::FailedPrecondition)
            << junk << ": " << decoded.status().toString();
    }
}

// Regression: a trailing space/tab left by an editor, or extra
// blanks before the key= field, are line framing — not an
// unrecognized trailing field.
TEST(ArtifactParsing, StrayHeaderWhitespaceIsTolerated)
{
    const EncodedArtifact plain = sampleArtifact();
    for (const char *pad : { " ", "\t", "  \t " }) {
        Result<DecodedObjects> decoded =
            decodeUnitText(withHeader(plain, plain.header + pad));
        ASSERT_TRUE(decoded.ok())
            << "pad '" << pad << "': " << decoded.status().toString();
        EXPECT_TRUE(decoded->exact);
    }

    const EncodedArtifact keyed = sampleArtifact(77);
    std::string header = keyed.header;
    const size_t at = header.find(" key=77");
    ASSERT_NE(at, std::string::npos);
    header.replace(at, 1, "\t  "); // tab + blanks before key=
    Result<DecodedObjects> decoded =
        decodeUnitText(withHeader(keyed, header + " \t"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->exact);
}

TEST(ArtifactParsing, MissingHeaderIsFailedPrecondition)
{
    Result<DecodedObjects> decoded = decodeUnitText("ACGTACGT\nACGT\n");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::FailedPrecondition);
}

TEST(ArtifactParsing, NonAcgtStrandLineIsFailedPrecondition)
{
    const EncodedArtifact artifact = sampleArtifact();
    std::string text = artifact.text();
    // Corrupt the first base of the first strand line.
    const size_t first_strand = text.find('\n') + 1;
    ASSERT_LT(first_strand, text.size());
    text[first_strand] = 'X';
    Result<DecodedObjects> decoded = decodeUnitText(text);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::FailedPrecondition)
        << decoded.status().toString();
    EXPECT_NE(decoded.status().message().find("line"),
              std::string::npos);
}
