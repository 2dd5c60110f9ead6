// h5lite container tests: typed round-trips, attributes, error paths,
// corruption detection (checksum / truncation / bad magic / length lies) and
// the CRC-32 against a bytewise reference.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "h5lite/h5file.hpp"

namespace {

using namespace is2::h5;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(H5Lite, RoundTripAllDtypes) {
  File f;
  f.put<double>("/g/d_f64", std::vector<double>{1.5, -2.5, 3.25});
  f.put<float>("/g/d_f32", std::vector<float>{0.5f, 1.5f});
  f.put<std::int64_t>("/g/d_i64", std::vector<std::int64_t>{-7, 9});
  f.put<std::int32_t>("/g/d_i32", std::vector<std::int32_t>{1, 2, 3, 4});
  f.put<std::uint8_t>("/g/d_u8", std::vector<std::uint8_t>{0, 255});
  f.put<std::int8_t>("/g/d_i8", std::vector<std::int8_t>{-4, 4});

  const auto buf = f.serialize();
  const File g = File::deserialize(buf);
  EXPECT_EQ(g.get<double>("/g/d_f64"), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(g.get<float>("/g/d_f32"), (std::vector<float>{0.5f, 1.5f}));
  EXPECT_EQ(g.get<std::int64_t>("/g/d_i64"), (std::vector<std::int64_t>{-7, 9}));
  EXPECT_EQ(g.get<std::int32_t>("/g/d_i32"), (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(g.get<std::uint8_t>("/g/d_u8"), (std::vector<std::uint8_t>{0, 255}));
  EXPECT_EQ(g.get<std::int8_t>("/g/d_i8"), (std::vector<std::int8_t>{-4, 4}));
}

TEST(H5Lite, ShapeRoundTrip) {
  File f;
  std::vector<double> data(12);
  f.put<double>("/m", data, {3, 4});
  const auto buf = f.serialize();
  const File g = File::deserialize(buf);
  EXPECT_EQ(g.shape("/m"), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(g.dtype("/m"), DType::F64);
}

TEST(H5Lite, ShapeMismatchThrows) {
  File f;
  std::vector<double> data(5);
  EXPECT_THROW(f.put<double>("/m", data, {3, 4}), H5Error);
}

TEST(H5Lite, PathMustBeAbsolute) {
  File f;
  EXPECT_THROW(f.put<double>("relative/path", std::vector<double>{1.0}), H5Error);
}

TEST(H5Lite, AttributesRoundTrip) {
  File f;
  f.set_attr("/a/pi", 3.14);
  f.set_attr("/a/n", std::int64_t{42});
  f.set_attr("/a/name", std::string("granule-x"));
  const File g = File::deserialize(f.serialize());
  EXPECT_DOUBLE_EQ(g.attr_double("/a/pi"), 3.14);
  EXPECT_EQ(g.attr_int("/a/n"), 42);
  EXPECT_EQ(g.attr_string("/a/name"), "granule-x");
  EXPECT_DOUBLE_EQ(g.attr_double("/a/n"), 42.0);  // int readable as double
  EXPECT_THROW(g.attr_int("/a/pi"), H5Error);
  EXPECT_THROW(g.attr("/missing"), H5Error);
}

TEST(H5Lite, MissingDatasetAndDtypeMismatch) {
  File f;
  f.put<double>("/x", std::vector<double>{1.0});
  EXPECT_THROW(f.get<double>("/y"), H5Error);
  EXPECT_THROW(f.get<float>("/x"), H5Error);
}

TEST(H5Lite, ListWithPrefix) {
  File f;
  f.put<double>("/gt1r/heights/h_ph", std::vector<double>{1.0});
  f.put<double>("/gt1r/heights/lat_ph", std::vector<double>{1.0});
  f.put<double>("/gt2r/heights/h_ph", std::vector<double>{1.0});
  EXPECT_EQ(f.list("/gt1r").size(), 2u);
  EXPECT_EQ(f.list().size(), 3u);
}

TEST(H5Lite, CorruptionDetectedByChecksum) {
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  auto buf = f.serialize();
  buf[buf.size() / 2] ^= 0xFF;  // flip a payload byte
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, TruncationDetected) {
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  auto buf = f.serialize();
  buf.resize(buf.size() / 2);
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, BadMagicRejected) {
  File f;
  f.put<double>("/data", std::vector<double>{1.0});
  auto buf = f.serialize();
  buf[0] = 'X';
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, DiskRoundTrip) {
  const std::string path = temp_path("is2_h5lite_test.h5l");
  File f;
  f.put<double>("/d", std::vector<double>{9.0, 8.0});
  f.set_attr("/id", std::string("t"));
  f.save(path);
  const File g = File::load(path);
  EXPECT_EQ(g.get<double>("/d"), (std::vector<double>{9.0, 8.0}));
  std::remove(path.c_str());
  EXPECT_THROW(File::load(path), H5Error);  // gone now
}

TEST(H5Lite, PayloadBytesCounts) {
  File f;
  f.put<double>("/a", std::vector<double>(10));
  f.put<std::uint8_t>("/b", std::vector<std::uint8_t>(3));
  EXPECT_EQ(f.payload_bytes(), 83u);
  EXPECT_EQ(f.dataset_count(), 2u);
}

TEST(H5Lite, ScanReadsMetadataWithoutPayload) {
  const std::string path = temp_path("is2_h5lite_scan.h5l");
  File f;
  std::vector<double> m(12);
  f.put<double>("/g/matrix", m, {3, 4});
  f.put<std::int8_t>("/g/conf", std::vector<std::int8_t>(7));
  f.set_attr("/id", std::string("scan-me"));
  f.set_attr("/pi", 3.25);
  f.set_attr("/n", std::int64_t{42});
  f.save(path);

  const FileMeta meta = File::scan(path);
  EXPECT_EQ(meta.datasets.size(), 2u);
  ASSERT_TRUE(meta.contains("/g/matrix"));
  EXPECT_EQ(meta.datasets.at("/g/matrix").dtype, DType::F64);
  EXPECT_EQ(meta.datasets.at("/g/matrix").shape, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(meta.datasets.at("/g/matrix").count(), 12u);
  EXPECT_EQ(meta.datasets.at("/g/matrix").nbytes, 96u);
  EXPECT_EQ(meta.datasets.at("/g/conf").dtype, DType::I8);
  EXPECT_EQ(std::get<std::string>(meta.attrs.at("/id")), "scan-me");
  EXPECT_EQ(std::get<double>(meta.attrs.at("/pi")), 3.25);
  EXPECT_EQ(std::get<std::int64_t>(meta.attrs.at("/n")), 42);
  EXPECT_EQ(meta.payload_bytes, f.serialize().size() - 16 - 4);  // body bytes

  std::remove(path.c_str());
  EXPECT_THROW(File::scan(path), H5Error);
}

TEST(H5Lite, ScanRejectsTruncationAndBadMagic) {
  const std::string path = temp_path("is2_h5lite_scan_bad.h5l");
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  {
    auto buf = f.serialize();
    buf.resize(buf.size() / 2);  // cut inside the dataset payload
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  {
    auto buf = f.serialize();
    buf[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  {
    // Corrupt the first dataset's path-length field to ~4 GiB: scan must
    // raise H5Error without attempting the allocation.
    auto buf = f.serialize();
    buf[20] = buf[21] = buf[22] = buf[23] = 0xFF;  // header(16) + n_datasets(4)
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  std::remove(path.c_str());
}

/// The classic byte-at-a-time CRC-32 (reflected 0xEDB88320): the oracle the
/// slicing-by-8 crc32 must match value for value.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(H5LiteCrc, KnownAnswers) {
  constexpr std::string_view check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(H5LiteCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..257 cover an empty input, every tail length after the 8-byte
  // words and several full words; offsets 0..7 misalign the word loads.
  std::vector<std::uint8_t> buf(8 + 257);
  std::uint32_t state = 0x12345678u;
  for (auto& b : buf) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s)) << "offset " << offset << " len " << len;
    }
}

TEST(H5LiteCrc, FixedBlobFromCurrentFormatStillLoads) {
  // File::serialize() output (format version 1) captured as bytes: two
  // datasets and two attributes, CRC written by the bytewise implementation.
  // Every file already on disk must keep loading.
  const std::vector<std::uint8_t> blob = {
      0x48, 0x35, 0x4c, 0x54, 0x01, 0x00, 0x00, 0x00, 0x87, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
      0x2f, 0x67, 0x74, 0x31, 0x72, 0x2f, 0x63, 0x6f, 0x6e, 0x66, 0x05, 0x01,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0xff, 0x00, 0x03, 0x02, 0x07, 0x00, 0x00,
      0x00, 0x2f, 0x67, 0x74, 0x31, 0x72, 0x2f, 0x68, 0x00, 0x01, 0x03, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0xc0, 0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62,
      0x50, 0x3f, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x2f, 0x69,
      0x64, 0x02, 0x0a, 0x00, 0x00, 0x00, 0x41, 0x54, 0x4c, 0x30, 0x33, 0x5f,
      0x62, 0x6c, 0x6f, 0x62, 0x02, 0x00, 0x00, 0x00, 0x2f, 0x6e, 0x01, 0x07,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3d, 0xd7, 0x0a, 0x48};
  const File g = File::deserialize(blob);
  EXPECT_EQ(g.get<double>("/gt1r/h"), (std::vector<double>{1.5, -2.25, 1e-3}));
  EXPECT_EQ(g.get<std::int8_t>("/gt1r/conf"), (std::vector<std::int8_t>{4, -1, 0, 3, 2}));
  EXPECT_EQ(g.attr_string("/id"), "ATL03_blob");
  EXPECT_EQ(g.attr_int("/n"), 7);
  EXPECT_EQ(g.serialize(), blob);  // and re-encodes to the same bytes
}

/// A well-formed header whose single f64 dataset claims 2^37 elements
/// (1 TiB) while the payload carries none of them.
std::vector<std::uint8_t> length_lie(bool matching_crc) {
  ByteWriter body;
  body.raw(std::uint32_t{1});  // n_datasets
  body.str("/lie");
  body.raw(static_cast<std::uint8_t>(DType::F64));
  body.raw(std::uint8_t{1});  // ndim
  const std::uint64_t n = std::uint64_t{1} << 37;
  body.raw(n);
  body.raw(n * 8);             // nbytes, consistent with the shape
  body.raw(std::uint32_t{0});  // n_attrs
  ByteWriter out;
  out.bytes(reinterpret_cast<const std::uint8_t*>("H5LT"), 4);
  out.raw(std::uint32_t{1});
  out.raw(static_cast<std::uint64_t>(body.buf.size()));
  out.bytes(body.buf.data(), body.buf.size());
  out.raw(matching_crc ? crc32(body.buf) : crc32(body.buf) ^ 0x1u);
  return out.buf;
}

TEST(H5Lite, LengthLieWithWrongCrcRaisesH5Error) {
  EXPECT_THROW(File::deserialize(length_lie(false)), H5Error);
}

TEST(H5Lite, LengthLieWithMatchingCrcRaisesH5Error) {
  EXPECT_THROW(File::deserialize(length_lie(true)), H5Error);
}

TEST(H5Lite, PayloadLengthLiesRaiseH5Error) {
  File f;
  f.put<double>("/data", std::vector<double>(8, 2.0));
  const auto good = f.serialize();
  {
    auto buf = good;  // payload_bytes near 2^64: must not wrap the bound check
    for (int i = 8; i < 16; ++i) buf[i] = 0xFF;
    EXPECT_THROW(File::deserialize(buf), H5Error);
  }
  {
    // A CRC-valid payload with one stray byte after the last attribute:
    // parsing must end exactly at the payload end.
    std::vector<std::uint8_t> body(good.begin() + 16, good.end() - 4);
    body.push_back(0);
    ByteWriter out;
    out.bytes(good.data(), 8);
    out.raw(static_cast<std::uint64_t>(body.size()));
    out.bytes(body.data(), body.size());
    out.raw(crc32(body));
    EXPECT_THROW(File::deserialize(out.buf), H5Error);
  }
}

}  // namespace
