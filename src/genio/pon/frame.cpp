#include "genio/pon/frame.hpp"

#include "genio/crypto/crc32.hpp"

namespace genio::pon {

Bytes EthFrame::serialize() const {
  Bytes out;
  auto put_string = [&out](const std::string& s) {
    common::put_u32_be(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  };
  put_string(src_mac);
  put_string(dst_mac);
  common::put_u32_be(out, static_cast<std::uint32_t>(ethertype));
  common::put_u32_be(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

common::Result<EthFrame> EthFrame::deserialize(BytesView data) {
  std::size_t offset = 0;
  auto read_u32 = [&](std::uint32_t& v) -> bool {
    if (offset + 4 > data.size()) return false;
    v = common::get_u32_be(data, offset);
    offset += 4;
    return true;
  };
  auto read_string = [&](std::string& s) -> bool {
    std::uint32_t len = 0;
    if (!read_u32(len) || offset + len > data.size()) return false;
    s.assign(data.begin() + static_cast<std::ptrdiff_t>(offset),
             data.begin() + static_cast<std::ptrdiff_t>(offset + len));
    offset += len;
    return true;
  };

  EthFrame frame;
  std::uint32_t ethertype = 0;
  std::uint32_t payload_len = 0;
  if (!read_string(frame.src_mac) || !read_string(frame.dst_mac) ||
      !read_u32(ethertype) || !read_u32(payload_len) ||
      offset + payload_len != data.size()) {
    return common::parse_error("malformed EthFrame wire bytes");
  }
  frame.ethertype = static_cast<EtherType>(ethertype);
  frame.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(offset), data.end());
  return frame;
}

GemHeader GemFrame::header() const {
  GemHeader out;
  const std::uint32_t ids = (static_cast<std::uint32_t>(onu_id) << 16) | port_id;
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(ids >> (24 - 8 * i));
    out[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(superframe >> (24 - 8 * i));
  }
  out[8] = encrypted ? 1 : 0;
  return out;
}

namespace {

std::uint32_t frame_crc(const GemFrame& frame) {
  const GemHeader hdr = frame.header();
  std::uint32_t state = crypto::crc32_init();
  state = crypto::crc32_update(state, BytesView(hdr.data(), hdr.size()));
  state = crypto::crc32_update(state, frame.payload);
  return crypto::crc32_final(state);
}

}  // namespace

void GemFrame::seal_fcs() { fcs = frame_crc(*this); }

bool GemFrame::fcs_valid() const { return fcs == frame_crc(*this); }

}  // namespace genio::pon
