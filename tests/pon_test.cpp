// Tests for the PON substrate: frames, MACsec replay protection, GPON
// payload encryption, the mutual-auth handshake (M4), ONU activation, and
// the T1 attacker toolkit run with mitigations on and off.
#include <gtest/gtest.h>

#include "genio/pon/attacker.hpp"
#include "genio/pon/auth.hpp"
#include "genio/pon/control.hpp"
#include "genio/pon/frame.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/macsec.hpp"
#include "genio/pon/medium.hpp"
#include "genio/pon/olt.hpp"
#include "genio/pon/onu.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace pon = genio::pon;

namespace {

cr::AesKey test_key(std::uint8_t fill) { return cr::make_aes_key(gc::Bytes(16, fill)); }

pon::EthFrame make_eth(const std::string& body) {
  pon::EthFrame f;
  f.src_mac = "02:00:00:00:00:01";
  f.dst_mac = "02:00:00:00:00:02";
  f.payload = gc::to_bytes(body);
  return f;
}

}  // namespace

// ------------------------------------------------------------------ frames

TEST(EthFrame, SerializeRoundTrip) {
  const auto f = make_eth("hello edge");
  const auto back = pon::EthFrame::deserialize(f.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, f);
}

TEST(EthFrame, DeserializeRejectsTruncated) {
  auto wire = make_eth("hello").serialize();
  wire.pop_back();
  EXPECT_FALSE(pon::EthFrame::deserialize(wire).ok());
  EXPECT_FALSE(pon::EthFrame::deserialize(gc::to_bytes("xx")).ok());
}

TEST(GemFrame, FcsDetectsCorruption) {
  pon::GemFrame f;
  f.onu_id = 3;
  f.port_id = 7;
  f.superframe = 9;
  f.payload = gc::to_bytes("payload");
  f.seal_fcs();
  EXPECT_TRUE(f.fcs_valid());
  f.payload[0] ^= 0x01;
  EXPECT_FALSE(f.fcs_valid());
}

TEST(ControlMessage, EncodeDecodeRoundTrip) {
  pon::ControlMessage msg;
  msg.type = pon::ControlType::kAssignOnuId;
  msg.fields = {{"serial", "GNIO0001"}, {"onu_id", "5"}};
  const auto back = pon::ControlMessage::decode(msg.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, pon::ControlType::kAssignOnuId);
  EXPECT_EQ(back->field("serial"), "GNIO0001");
  EXPECT_EQ(back->field("missing", "dflt"), "dflt");
}

TEST(ControlMessage, DecodeRejectsGarbage) {
  EXPECT_FALSE(pon::ControlMessage::decode(gc::to_bytes("no_such_type")).ok());
  EXPECT_FALSE(pon::ControlMessage::decode(gc::to_bytes("sn_request;badfield")).ok());
}

// ------------------------------------------------------------------ MACsec

TEST(Macsec, ProtectValidateRoundTrip) {
  pon::MacsecSecY tx(0x1111, test_key(1));
  pon::MacsecSecY rx(0x2222, test_key(1));
  const auto frame = make_eth("inter-OLT traffic");
  const auto wire = tx.protect(frame);
  const auto got = rx.validate(wire);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, frame);
  EXPECT_EQ(rx.stats().validated_frames, 1u);
}

TEST(Macsec, PacketNumbersAdvance) {
  pon::MacsecSecY tx(0x1, test_key(1));
  EXPECT_EQ(tx.protect(make_eth("a")).pn, 1u);
  EXPECT_EQ(tx.protect(make_eth("b")).pn, 2u);
  EXPECT_EQ(tx.next_pn(), 3u);
}

TEST(Macsec, ReplayedFrameRejected) {
  pon::MacsecSecY tx(0x1, test_key(1));
  pon::MacsecSecY rx(0x2, test_key(1));
  const auto wire = tx.protect(make_eth("once"));
  EXPECT_TRUE(rx.validate(wire).ok());
  const auto again = rx.validate(wire);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), gc::ErrorCode::kReplayDetected);
  EXPECT_EQ(rx.stats().replayed_frames, 1u);
}

TEST(Macsec, ReorderingWithinWindowAccepted) {
  pon::MacsecSecY tx(0x1, test_key(1), 64);
  pon::MacsecSecY rx(0x2, test_key(1), 64);
  const auto w1 = tx.protect(make_eth("one"));
  const auto w2 = tx.protect(make_eth("two"));
  const auto w3 = tx.protect(make_eth("three"));
  EXPECT_TRUE(rx.validate(w3).ok());
  EXPECT_TRUE(rx.validate(w1).ok());  // late but within window
  EXPECT_TRUE(rx.validate(w2).ok());
  EXPECT_FALSE(rx.validate(w2).ok());  // now a duplicate
}

TEST(Macsec, FrameBelowWindowFloorRejected) {
  pon::MacsecSecY tx(0x1, test_key(1), 8);
  pon::MacsecSecY rx(0x2, test_key(1), 8);
  const auto early = tx.protect(make_eth("early"));
  // Advance the receiver far past the window.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(rx.validate(tx.protect(make_eth("x"))).ok());
  }
  const auto st = rx.validate(early);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kReplayDetected);
  EXPECT_GE(rx.stats().late_frames, 1u);
}

TEST(Macsec, FarFuturePnIsAnIcvFailureNotALateFrame) {
  // A PN near 2^32 is far ahead of the window, not behind it: the replay
  // floor must not wrap and call a forged frame late.
  pon::MacsecSecY tx(0x1, test_key(1));
  pon::MacsecSecY rx(0x2, test_key(1));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rx.validate(tx.protect(make_eth("x"))).ok());
  }
  auto forged = tx.protect(make_eth("forged"));
  forged.pn = 0xFFFFFFF0u;
  const auto st = rx.validate(forged);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kDecryptionFailed);
  EXPECT_EQ(rx.stats().invalid_tag_frames, 1u);
  EXPECT_EQ(rx.stats().late_frames, 0u);
}

TEST(Macsec, TamperedFrameRejected) {
  pon::MacsecSecY tx(0x1, test_key(1));
  pon::MacsecSecY rx(0x2, test_key(1));
  auto wire = tx.protect(make_eth("valuable"));
  wire.ciphertext[0] ^= 0xff;
  const auto st = rx.validate(wire);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kDecryptionFailed);
  EXPECT_EQ(rx.stats().invalid_tag_frames, 1u);
}

TEST(Macsec, WrongKeyRejected) {
  pon::MacsecSecY tx(0x1, test_key(1));
  pon::MacsecSecY rx(0x2, test_key(9));
  EXPECT_FALSE(rx.validate(tx.protect(make_eth("frame"))).ok());
}

TEST(Macsec, SectagTamperRejected) {
  pon::MacsecSecY tx(0x1, test_key(1));
  pon::MacsecSecY rx(0x2, test_key(1));
  auto wire = tx.protect(make_eth("frame"));
  wire.sci ^= 0xff;  // spoof the sender identity
  EXPECT_FALSE(rx.validate(wire).ok());
}

// ------------------------------------------------------------- GPON cipher

TEST(GponCipher, EncryptDecryptRoundTrip) {
  pon::GponCipher cipher(test_key(3));
  pon::GemFrame f;
  f.onu_id = 12;
  f.port_id = 2;
  f.superframe = 99;
  f.payload = gc::to_bytes("sensor readings");
  cipher.encrypt(f);
  EXPECT_TRUE(f.encrypted);
  EXPECT_TRUE(f.fcs_valid());
  EXPECT_EQ(gc::to_text(f.payload).find("sensor"), std::string::npos);

  ASSERT_TRUE(cipher.decrypt(f).ok());
  EXPECT_EQ(gc::to_text(f.payload), "sensor readings");
}

TEST(GponCipher, DirectionsUseDistinctNonces) {
  // The OLT and the ONU share the data key and count superframes on their
  // own, so a frame each way can carry the same superframe, ONU-ID and
  // port. The direction byte in the IV keeps their keystreams apart.
  const pon::GponCipher cipher(test_key(3));
  pon::GemFrame down;
  down.onu_id = 12;
  down.port_id = 1;
  down.superframe = 5;
  down.payload = gc::to_bytes("the same payload, both ways");
  pon::GemFrame up = down;
  pon::GemFrame by_default = down;
  cipher.encrypt(down, pon::Direction::kDownstream);
  cipher.encrypt(up, pon::Direction::kUpstream);
  cipher.encrypt(by_default);
  EXPECT_NE(down.payload, up.payload);
  EXPECT_EQ(by_default.payload, down.payload);  // downstream is the default

  pon::GemFrame reflected = up;
  EXPECT_FALSE(cipher.decrypt(reflected, pon::Direction::kDownstream).ok());
  ASSERT_TRUE(cipher.decrypt(up, pon::Direction::kUpstream).ok());
  EXPECT_EQ(gc::to_text(up.payload), "the same payload, both ways");
}

TEST(GponCipher, HeaderTamperBreaksAad) {
  pon::GponCipher cipher(test_key(3));
  pon::GemFrame f;
  f.onu_id = 12;
  f.port_id = 2;
  f.superframe = 99;
  f.payload = gc::to_bytes("data");
  cipher.encrypt(f);
  f.onu_id = 13;  // redirect to another ONU
  f.seal_fcs();
  EXPECT_FALSE(cipher.decrypt(f).ok());
}

TEST(GponCipher, WrongKeyFails) {
  pon::GponCipher enc(test_key(3));
  pon::GponCipher dec(test_key(4));
  pon::GemFrame f;
  f.onu_id = 1;
  f.port_id = 1;
  f.superframe = 1;
  f.payload = gc::to_bytes("data");
  enc.encrypt(f);
  EXPECT_FALSE(dec.decrypt(f).ok());
}

TEST(GponCipher, SpareCapacityDoesNotChangeTheFrame) {
  // encrypt() reserves room for the tag, which reallocates a payload
  // without spare capacity: the frames must come out the same either way.
  const pon::GponCipher cipher(test_key(5));
  gc::Rng rng(4711);
  for (const std::size_t len : {0u, 1u, 9u, 64u, 255u, 256u, 1500u, 4096u, 9000u}) {
    for (const auto direction : {pon::Direction::kDownstream, pon::Direction::kUpstream}) {
      pon::GemFrame tight;
      tight.onu_id = 9;
      tight.port_id = 3;
      tight.superframe = 4242;
      tight.payload = rng.bytes(len);
      tight.payload.shrink_to_fit();
      pon::GemFrame roomy = tight;
      roomy.payload.reserve(len + 64);
      cipher.encrypt(tight, direction);
      cipher.encrypt(roomy, direction);
      EXPECT_EQ(tight, roomy) << "len=" << len;
      EXPECT_TRUE(tight.fcs_valid());
      ASSERT_TRUE(cipher.decrypt(tight, direction).ok()) << "len=" << len;
      ASSERT_TRUE(cipher.decrypt(roomy, direction).ok()) << "len=" << len;
      EXPECT_EQ(tight, roomy) << "len=" << len;
    }
  }
}

TEST(GponCipher, DecryptRequiresEncryptedFlag) {
  pon::GponCipher cipher(test_key(3));
  pon::GemFrame f;
  f.payload = gc::to_bytes("short");
  EXPECT_FALSE(cipher.decrypt(f).ok());
}

// -------------------------------------------------------------- handshake

namespace {

struct AuthFixture {
  gc::SimTime t0 = gc::SimTime::from_days(0);
  gc::SimTime t_end = gc::SimTime::from_days(365);
  cr::CertificateAuthority ca = cr::CertificateAuthority::create_root(
      "genio-root", gc::to_bytes("ca-seed"), t0, t_end, 6);
  cr::TrustStore trust;

  AuthFixture() { trust.add_root(ca.certificate()); }

  pon::AuthEndpoint make_endpoint(const std::string& id, const std::string& seed) {
    auto key = cr::SigningKey::generate(gc::to_bytes(seed), 4);
    auto cert =
        ca.issue(id, key.public_key(), t0, t_end, {cr::KeyUsage::kNodeAuth}).value();
    return pon::AuthEndpoint(id, std::move(key), {cert, ca.certificate()}, &trust,
                             gc::Rng(std::hash<std::string>{}(seed)));
  }
};

}  // namespace

TEST(AuthHandshake, CompletesAndKeysMatch) {
  AuthFixture f;
  auto olt = f.make_endpoint("olt-1", "olt-seed");
  auto onu = f.make_endpoint("onu-1", "onu-seed");

  const auto hello = olt.initiate();
  const auto response = onu.respond(hello, gc::SimTime::from_days(1));
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  auto finished = olt.finish(*response, gc::SimTime::from_days(1));
  ASSERT_TRUE(finished.ok()) << finished.error().to_string();
  const auto onu_keys = onu.complete(finished->first);
  ASSERT_TRUE(onu_keys.ok());

  EXPECT_EQ(finished->second.data_key, onu_keys->data_key);
  EXPECT_EQ(finished->second.session_id, onu_keys->session_id);
}

TEST(AuthHandshake, RejectsUntrustedInitiator) {
  AuthFixture f;
  auto onu = f.make_endpoint("onu-1", "onu-seed");

  // Attacker CA unknown to the platform trust store.
  auto evil_ca = cr::CertificateAuthority::create_root("evil", gc::to_bytes("evil"),
                                                       f.t0, f.t_end, 4);
  auto evil_key = cr::SigningKey::generate(gc::to_bytes("ek"), 4);
  auto evil_cert = evil_ca
                       .issue("olt-1", evil_key.public_key(), f.t0, f.t_end,
                              {cr::KeyUsage::kNodeAuth})
                       .value();
  cr::TrustStore evil_trust;
  evil_trust.add_root(evil_ca.certificate());
  pon::AuthEndpoint attacker("olt-1", std::move(evil_key),
                             {evil_cert, evil_ca.certificate()}, &evil_trust, gc::Rng(1));

  const auto hello = attacker.initiate();
  const auto response = onu.respond(hello, gc::SimTime::from_days(1));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code(), gc::ErrorCode::kAuthenticationFailed);
}

TEST(AuthHandshake, RejectsIdentityMismatch) {
  AuthFixture f;
  auto olt = f.make_endpoint("olt-1", "olt-seed");
  auto onu = f.make_endpoint("onu-1", "onu-seed");
  auto hello = olt.initiate();
  hello.initiator_id = "olt-2";  // claim a different identity than the cert
  const auto response = onu.respond(hello, gc::SimTime::from_days(1));
  ASSERT_FALSE(response.ok());
}

TEST(AuthHandshake, RejectsExpiredCertificate) {
  AuthFixture f;
  auto olt = f.make_endpoint("olt-1", "olt-seed");
  auto onu = f.make_endpoint("onu-1", "onu-seed");
  const auto hello = olt.initiate();
  // Day 400 is past every certificate's validity.
  EXPECT_FALSE(onu.respond(hello, gc::SimTime::from_days(400)).ok());
}

TEST(AuthHandshake, RejectsInvalidDhShare) {
  AuthFixture f;
  auto olt = f.make_endpoint("olt-1", "olt-seed");
  auto onu = f.make_endpoint("onu-1", "onu-seed");
  auto hello = olt.initiate();
  hello.dh_public = 0;
  EXPECT_FALSE(onu.respond(hello, gc::SimTime::from_days(1)).ok());
}

TEST(AuthHandshake, TamperedTranscriptSignatureRejected) {
  AuthFixture f;
  auto olt = f.make_endpoint("olt-1", "olt-seed");
  auto onu = f.make_endpoint("onu-1", "onu-seed");
  const auto hello = olt.initiate();
  auto response = onu.respond(hello, gc::SimTime::from_days(1)).value();
  response.dh_public ^= 1;  // substitute the DH share after signing
  EXPECT_FALSE(olt.finish(response, gc::SimTime::from_days(1)).ok());
}

TEST(AuthHandshake, DhSharedSecretAgrees) {
  const std::uint64_t a = 123456789, b = 987654321;
  const auto ga = pon::dh::pow_mod(pon::dh::kGenerator, a);
  const auto gb = pon::dh::pow_mod(pon::dh::kGenerator, b);
  EXPECT_EQ(pon::dh::pow_mod(gb, a), pon::dh::pow_mod(ga, b));
}

// -------------------------------------------------------------- activation

namespace {

struct PonFixture {
  gc::SimClock clock;
  gc::Logger logger{&clock};
  gc::EventBus bus{&clock};
  pon::Odn odn;
  AuthFixture pki;

  std::unique_ptr<pon::Olt> make_olt(pon::OltSecurityPolicy policy) {
    auto olt = std::make_unique<pon::Olt>("olt-1", &odn, &clock, &logger, &bus, policy);
    auto key = cr::SigningKey::generate(gc::to_bytes("olt-key"), 6);
    auto cert = pki.ca
                    .issue("olt-1", key.public_key(), pki.t0, pki.t_end,
                           {cr::KeyUsage::kNodeAuth})
                    .value();
    olt->provision_credentials(std::move(key), {cert, pki.ca.certificate()},
                               &pki.trust, gc::Rng(42));
    return olt;
  }

  std::unique_ptr<pon::Onu> make_onu(const std::string& serial) {
    auto onu = std::make_unique<pon::Onu>(serial, &odn, &clock, &logger);
    auto key = cr::SigningKey::generate(gc::to_bytes("key-" + serial), 4);
    auto cert = pki.ca
                    .issue(serial, key.public_key(), pki.t0, pki.t_end,
                           {cr::KeyUsage::kNodeAuth})
                    .value();
    onu->provision_credentials(std::move(key), {cert, pki.ca.certificate()},
                               &pki.trust, gc::Rng(std::hash<std::string>{}(serial)));
    return onu;
  }
};

}  // namespace

TEST(Activation, OnuReachesOperational) {
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");

  olt->start_discovery();
  EXPECT_EQ(onu->state(), pon::OnuState::kOperational);
  EXPECT_NE(onu->onu_id(), 0);
  EXPECT_TRUE(olt->onu_id_for("GNIO0001").has_value());
}

TEST(ControlMessage, OnuIdParserAcceptsOnlyAssignableIds) {
  EXPECT_EQ(pon::parse_onu_id("1").value(), 1);
  EXPECT_EQ(pon::parse_onu_id("1022").value(), 1022);
  for (const char* text : {"", "0", "1023", "-1", "+5", "5 ", " 5", "0x10", "65537"}) {
    EXPECT_FALSE(pon::parse_onu_id(text).ok()) << "'" << text << "'";
  }
}

// Control frames are untrusted: anyone on the tree can put a payload with
// a valid FCS on port 0. An assign_onu_id whose ID is not in [1, 1022] is
// dropped, without throwing out of the medium, and the honest ONU and the
// rogue keep waiting for a real assignment.
TEST(Activation, ForgedOnuIdAssignmentIsDropped) {
  PonFixture f;
  auto onu = f.make_onu("GNIO0001");
  pon::RogueOnu rogue("GNIO0002", &f.odn);
  pon::DownstreamHijacker hijacker(&f.odn);
  const auto control = [&](const std::string& text) {
    hijacker.inject(pon::kBroadcastOnuId, pon::kControlPort, 1, gc::to_bytes(text));
  };
  control("sn_request");
  ASSERT_EQ(onu->state(), pon::OnuState::kAwaitingAssignment);
  for (const std::string id : {"zz", "99999999999", "1023", "66559"}) {
    for (const char* serial : {"GNIO0001", "GNIO0002"}) {
      EXPECT_NO_THROW(control("assign_onu_id;onu_id=" + id + ";serial=" + serial)) << id;
    }
    EXPECT_EQ(onu->state(), pon::OnuState::kAwaitingAssignment) << id;
    EXPECT_EQ(onu->onu_id(), 0) << id;
    EXPECT_FALSE(rogue.activated()) << id;
  }
  control("assign_onu_id;onu_id=5;serial=GNIO0001");
  EXPECT_EQ(onu->state(), pon::OnuState::kRanging);
  EXPECT_EQ(onu->onu_id(), 5);
}

// A replayed sn_response for an allowlisted serial gets a fresh ONU-ID
// each time. Once [1, 1022] is used up the OLT rejects it: it neither
// hands out the broadcast ID nor wraps round onto the live ONU's record.
TEST(Activation, ReplayedSerialResponsesCannotExhaustOrWrapOnuIds) {
  PonFixture f;
  auto olt = f.make_olt({.enforce_serial_allowlist = true});
  (void)olt->register_serial("GNIO0001");
  (void)olt->register_serial("GNIO0002");
  auto onu = f.make_onu("GNIO0001");
  olt->start_discovery();
  ASSERT_EQ(onu->state(), pon::OnuState::kOperational);
  ASSERT_EQ(olt->onu_id_for("GNIO0001"), std::optional<std::uint16_t>(1));

  std::size_t exhausted = 0;
  f.bus.subscribe("pon.security.onu_id_exhausted", [&](const gc::Event&) { ++exhausted; });
  pon::ControlMessage response;
  response.type = pon::ControlType::kSerialNumberResponse;
  response.fields = {{"serial", "GNIO0002"}};
  pon::GemFrame replay;
  replay.port_id = pon::kControlPort;
  replay.payload = response.encode();
  replay.seal_fcs();
  for (int i = 0; i < 70000; ++i) f.odn.upstream(replay);

  const auto& records = olt->onus();
  EXPECT_EQ(records.size(), 1022u);
  EXPECT_EQ(records.begin()->first, 1);
  EXPECT_EQ(records.rbegin()->first, pon::kBroadcastOnuId - 1);
  EXPECT_EQ(records.at(1).serial, "GNIO0001");
  EXPECT_TRUE(records.at(1).ranged);
  EXPECT_EQ(exhausted, 70000u - 1021u);
  EXPECT_EQ(onu->state(), pon::OnuState::kOperational);
  EXPECT_EQ(onu->onu_id(), 1);
}

TEST(Activation, UnknownSerialRejectedByAllowlist) {
  PonFixture f;
  auto olt = f.make_olt({.enforce_serial_allowlist = true});
  auto onu = f.make_onu("GNIO9999");  // not registered

  olt->start_discovery();
  EXPECT_NE(onu->state(), pon::OnuState::kOperational);
  EXPECT_EQ(olt->counters().unknown_serial_rejected, 1u);
}

TEST(Activation, MultipleOnusActivate) {
  PonFixture f;
  auto olt = f.make_olt({});
  std::vector<std::unique_ptr<pon::Onu>> onus;
  for (int i = 0; i < 8; ++i) {
    const std::string serial = "GNIO000" + std::to_string(i);
    (void)olt->register_serial(serial);
    onus.push_back(f.make_onu(serial));
  }
  olt->start_discovery();
  for (const auto& onu : onus) {
    EXPECT_EQ(onu->state(), pon::OnuState::kOperational) << onu->serial();
  }
  EXPECT_EQ(olt->onus().size(), 8u);
}

TEST(Activation, AuthenticationEstablishesEncryptedPath) {
  PonFixture f;
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();

  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());
  EXPECT_TRUE(onu->session_active());
  EXPECT_TRUE(olt->onus().at(id).authenticated);
}

TEST(DataPath, PlaintextRoundTrip) {
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();

  ASSERT_TRUE(olt->send_data(id, 1, gc::to_bytes("to the far edge")).ok());
  ASSERT_EQ(onu->received_data().size(), 1u);
  EXPECT_EQ(gc::to_text(onu->received_data()[0]), "to the far edge");

  onu->send_data(1, gc::to_bytes("to the central office"));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 4);
  ASSERT_EQ(olt->received_data().at(id).size(), 1u);
  EXPECT_EQ(gc::to_text(olt->received_data().at(id)[0]), "to the central office");
}

TEST(DataPath, EncryptedRoundTrip) {
  PonFixture f;
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());

  ASSERT_TRUE(olt->send_data(id, 1, gc::to_bytes("secret")).ok());
  ASSERT_EQ(onu->received_data().size(), 1u);
  EXPECT_EQ(gc::to_text(onu->received_data()[0]), "secret");

  onu->send_data(1, gc::to_bytes("telemetry"));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 4);
  ASSERT_EQ(olt->received_data().at(id).size(), 1u);
  EXPECT_EQ(gc::to_text(olt->received_data().at(id)[0]), "telemetry");
}

TEST(DataPath, ReflectedUpstreamFrameIsRejected) {
  // Both ends seal under the one session data key and count superframes
  // on their own. A tap that plays the ONU's own upstream frame back down
  // the tree must not get it accepted as OLT data.
  PonFixture f;
  pon::FiberTap tap;
  f.odn.add_tap(&tap);
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());

  for (int i = 0; i < 8; ++i) onu->send_data(1, gc::to_bytes("uplink " + std::to_string(i)));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 8);
  ASSERT_EQ(olt->received_data().at(id).size(), 8u);
  const pon::GemFrame captured = tap.captured_upstream().back();
  ASSERT_EQ(captured.port_id, 1);
  ASSERT_TRUE(captured.encrypted);

  f.odn.downstream(captured);
  EXPECT_TRUE(onu->received_data().empty());
  EXPECT_EQ(onu->stats().decrypt_failures, 1u);
}

TEST(DataPath, UnauthenticatedOnuDeniedWhenM4Required) {
  PonFixture f;
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();

  const auto st = olt->send_data(id, 1, gc::to_bytes("data"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kPermissionDenied);
}

TEST(Activation, DeactivationResetsOnu) {
  PonFixture f;
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());
  ASSERT_TRUE(onu->session_active());

  // OLT-initiated deactivation (e.g. suspected compromise): the ONU drops
  // to initial state and its session key is destroyed.
  pon::ControlMessage msg;
  msg.type = pon::ControlType::kDeactivate;
  msg.fields["serial"] = "GNIO0001";
  pon::GemFrame frame;
  frame.onu_id = id;
  frame.port_id = pon::kControlPort;
  frame.superframe = 999;
  frame.payload = msg.encode();
  frame.seal_fcs();
  f.odn.downstream(frame);

  EXPECT_EQ(onu->state(), pon::OnuState::kInitial);
  EXPECT_EQ(onu->onu_id(), 0);
  EXPECT_FALSE(onu->session_active());
}

TEST(DataPath, OnuQueueDrainsAcrossMultipleGrants) {
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();

  for (int i = 0; i < 10; ++i) {
    onu->send_data(1, gc::to_bytes("r" + std::to_string(i)));
  }
  EXPECT_EQ(onu->upstream_queue_size(), 10u);
  pon::Onu* raw = onu.get();
  EXPECT_EQ(olt->run_dba_cycle(std::span(&raw, 1), 4), 4u);
  EXPECT_EQ(onu->upstream_queue_size(), 6u);
  EXPECT_EQ(olt->run_dba_cycle(std::span(&raw, 1), 4), 4u);
  EXPECT_EQ(olt->run_dba_cycle(std::span(&raw, 1), 4), 2u);
  EXPECT_EQ(olt->received_data().at(id).size(), 10u);
}

TEST(DataPath, ControlPortReservedOnBothEnds) {
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  EXPECT_THROW(onu->send_data(pon::kControlPort, gc::to_bytes("x")),
               std::invalid_argument);
  const auto st = olt->send_data(onu->onu_id(), pon::kControlPort, gc::to_bytes("x"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kInvalidArgument);
}

// ----------------------------------------------------------------- attacks

TEST(AttackT1, FiberTapReadsPlaintextWithoutM3) {
  PonFixture f;
  pon::FiberTap tap;
  f.odn.add_tap(&tap);
  auto olt = f.make_olt({});  // no encryption
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();

  ASSERT_TRUE(olt->send_data(id, 1, gc::to_bytes("customer secret data")).ok());
  EXPECT_GT(tap.plaintext_data_bytes(), 0u);
  EXPECT_DOUBLE_EQ(tap.plaintext_ratio(), 1.0);
}

TEST(AttackT1, FiberTapDefeatedByM3Encryption) {
  PonFixture f;
  pon::FiberTap tap;
  f.odn.add_tap(&tap);
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());

  ASSERT_TRUE(olt->send_data(id, 1, gc::to_bytes("customer secret data")).ok());
  onu->send_data(1, gc::to_bytes("more secrets"));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 4);

  EXPECT_EQ(tap.plaintext_data_bytes(), 0u);
  EXPECT_GT(tap.ciphertext_data_bytes(), 0u);
  EXPECT_DOUBLE_EQ(tap.plaintext_ratio(), 0.0);
}

TEST(AttackT1, ReplaySucceedsWithoutEncryption) {
  PonFixture f;
  pon::FiberTap tap;
  f.odn.add_tap(&tap);
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();

  onu->send_data(1, gc::to_bytes("pay 100 EUR"));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 4);
  ASSERT_EQ(olt->received_data().at(id).size(), 1u);

  // Without integrity protection the replayed frame's counter can be bumped
  // by the attacker: craft the same payload with a fresh superframe.
  pon::GemFrame forged = tap.captured_upstream().back();
  forged.superframe += 100;
  forged.seal_fcs();
  f.odn.upstream(forged);
  // The duplicated payment arrives again: replay succeeded.
  EXPECT_EQ(olt->received_data().at(id).size(), 2u);
}

TEST(AttackT1, ReplayBlockedWithEncryption) {
  PonFixture f;
  pon::FiberTap tap;
  f.odn.add_tap(&tap);
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());

  onu->send_data(1, gc::to_bytes("pay 100 EUR"));
  pon::Onu* raw = onu.get();
  olt->run_dba_cycle(std::span(&raw, 1), 4);
  ASSERT_EQ(olt->received_data().at(id).size(), 1u);

  // Bit-exact replay: stale superframe counter -> dropped.
  pon::ReplayAttacker replayer(&tap);
  EXPECT_GT(replayer.replay_upstream(f.odn, 10), 0u);
  EXPECT_EQ(olt->received_data().at(id).size(), 1u);
  EXPECT_GT(olt->counters().stale_superframe_drops, 0u);

  // Counter-bumped replay: superframe is in the AAD, so the tag fails.
  pon::GemFrame forged = tap.captured_upstream().back();
  forged.superframe += 100;
  forged.seal_fcs();
  f.odn.upstream(forged);
  EXPECT_EQ(olt->received_data().at(id).size(), 1u);
  EXPECT_GT(olt->counters().decrypt_failures, 0u);
}

TEST(AttackT1, ImpersonationSucceedsWithoutM4) {
  PonFixture f;
  // Allow-list on, but no certificate requirement: a rogue that clones a
  // KNOWN serial activates and steals downstream traffic.
  auto olt = f.make_olt({.enforce_serial_allowlist = true});
  (void)olt->register_serial("GNIO0001");
  pon::RogueOnu rogue("GNIO0001", &f.odn);

  olt->start_discovery();
  EXPECT_TRUE(rogue.activated());

  ASSERT_TRUE(olt->send_data(rogue.onu_id(), 1, gc::to_bytes("for the real onu")).ok());
  EXPECT_EQ(rogue.stolen_frames().size(), 1u);
}

TEST(AttackT1, ImpersonationBlockedByM4) {
  PonFixture f;
  auto olt = f.make_olt({.enforce_serial_allowlist = true,
                         .require_authentication = true,
                         .encrypt_data_path = true});
  (void)olt->register_serial("GNIO0001");
  pon::RogueOnu rogue("GNIO0001", &f.odn);

  // Attacker forges credentials from its own CA.
  auto evil_ca = cr::CertificateAuthority::create_root("evil-ca", gc::to_bytes("evil"),
                                                       f.pki.t0, f.pki.t_end, 4);
  auto evil_key = cr::SigningKey::generate(gc::to_bytes("evil-key"), 4);
  auto evil_cert = evil_ca
                       .issue("GNIO0001", evil_key.public_key(), f.pki.t0, f.pki.t_end,
                              {cr::KeyUsage::kNodeAuth})
                       .value();
  static cr::TrustStore evil_trust;
  evil_trust.add_root(evil_ca.certificate());
  rogue.forge_credentials(std::move(evil_key), {evil_cert, evil_ca.certificate()},
                          &evil_trust, gc::Rng(666));

  olt->start_discovery();
  EXPECT_TRUE(rogue.activated());  // layer-2 activation alone succeeds...

  // ...but the handshake fails: the forged chain does not verify.
  const auto st = olt->authenticate_onu(rogue.onu_id(), rogue);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(olt->counters().auth_failures, 1u);

  // And with M4 required, the data path never opens for the rogue.
  EXPECT_FALSE(olt->send_data(rogue.onu_id(), 1, gc::to_bytes("blocked")).ok());
}

TEST(AttackT1, DownstreamHijackSucceedsWithoutM3) {
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();

  pon::DownstreamHijacker hijacker(&f.odn);
  hijacker.inject(onu->onu_id(), 1, /*superframe_guess=*/500,
                  gc::to_bytes("malicious firmware url"));
  ASSERT_EQ(onu->received_data().size(), 1u);
  EXPECT_EQ(gc::to_text(onu->received_data()[0]), "malicious firmware url");
}

TEST(AttackT1, DownstreamHijackBlockedByM3) {
  PonFixture f;
  auto olt = f.make_olt({.require_authentication = true, .encrypt_data_path = true});
  auto onu = f.make_onu("GNIO0001");
  (void)olt->register_serial("GNIO0001");
  olt->start_discovery();
  const auto id = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->authenticate_onu(id, *onu).ok());

  pon::DownstreamHijacker hijacker(&f.odn);
  // Plaintext injection: dropped as a downgrade.
  hijacker.inject(id, 1, 500, gc::to_bytes("malicious payload"));
  // Fake-encrypted injection: GCM tag cannot be forged.
  hijacker.inject(id, 1, 501, gc::to_bytes("garbage ciphertext geq 16B...."), true);
  EXPECT_TRUE(onu->received_data().empty());
  EXPECT_GE(onu->stats().decrypt_failures, 2u);
}

TEST(AttackT1, BroadcastPhysicsExposeForeignFrames) {
  // Every ONU physically receives frames for everyone — the property that
  // makes downstream encryption non-optional in multi-tenant PON.
  PonFixture f;
  auto olt = f.make_olt({});
  auto onu1 = f.make_onu("GNIO0001");
  auto onu2 = f.make_onu("GNIO0002");
  (void)olt->register_serial("GNIO0001");
  (void)olt->register_serial("GNIO0002");
  olt->start_discovery();

  const auto id1 = olt->onu_id_for("GNIO0001").value();
  ASSERT_TRUE(olt->send_data(id1, 1, gc::to_bytes("tenant-1 data")).ok());
  EXPECT_GE(onu2->stats().foreign_frames_seen, 1u);
}

// ------------------------------------------------- one verdict per tree

namespace {

pon::GemFrame control_frame(std::uint16_t onu_id, const std::string& text) {
  pon::GemFrame frame;
  frame.onu_id = onu_id;
  frame.port_id = pon::kControlPort;
  frame.payload = gc::to_bytes(text);
  frame.seal_fcs();
  return frame;
}

// Records what it was handed for one delivery. With `rewrite` set, it
// overwrites that frame once it has read it, so a receiver after it sees
// new bytes unless the view kept what it had already computed.
struct ProbeDevice final : pon::OnuDevice {
  pon::GemFrame* rewrite = nullptr;
  const pon::DownstreamView* view = nullptr;
  const pon::ControlMessage* message = nullptr;
  std::string serial;
  bool fcs_valid = false;

  void on_downstream(const pon::DownstreamView& delivery) override {
    view = &delivery;
    fcs_valid = delivery.fcs_valid();
    message = &delivery.control().value();
    serial = message->field("serial");
    if (rewrite != nullptr) {
      *rewrite = control_frame(pon::kBroadcastOnuId, "assign_onu_id;onu_id=9;serial=GNIO0009");
      rewrite->fcs ^= 1;
    }
  }
};

// N honest ONUs, activated by an OLT, each logging to one memory sink.
struct Tree {
  gc::SimClock clock;
  gc::MemorySink sink;
  gc::Logger logger{&clock};
  pon::Odn odn;
  pon::Olt olt{"olt-1", &odn, &clock, nullptr, nullptr, {}};
  std::vector<std::unique_ptr<pon::Onu>> onus;

  explicit Tree(int n) {
    logger.add_sink(&sink);
    for (int i = 0; i < n; ++i) {
      const std::string serial = "GNIO000" + std::to_string(i);
      (void)olt.register_serial(serial);
      onus.push_back(std::make_unique<pon::Onu>(serial, &odn, &clock, &logger));
    }
    olt.start_discovery();
  }

  std::size_t warnings(const std::string& text) const {
    std::size_t count = 0;
    for (const auto& record : sink.filter(gc::LogLevel::kWarn, "pon.onu.")) {
      if (record.message.find(text) != std::string::npos) ++count;
    }
    return count;
  }
};

}  // namespace

// Downstream is broadcast: the ODN hands every receiver the same view,
// which checks the FCS and decodes the control message once. The first
// probe rewrites the frame after reading it; the second must still read
// the first decode and verdict, which a view built per receiver would not.
TEST(SharedView, EveryReceiverGetsTheSameViewAndDecode) {
  pon::Odn odn;
  ProbeDevice first;
  ProbeDevice second;
  odn.attach_onu(&first);
  odn.attach_onu(&second);
  pon::GemFrame frame =
      control_frame(pon::kBroadcastOnuId, "assign_onu_id;onu_id=5;serial=GNIO0001");
  first.rewrite = &frame;
  odn.downstream(frame);

  ASSERT_NE(first.view, nullptr);
  EXPECT_EQ(second.view, first.view);
  EXPECT_EQ(second.message, first.message);
  EXPECT_EQ(first.serial, "GNIO0001");
  EXPECT_EQ(second.serial, "GNIO0001");
  EXPECT_TRUE(first.fcs_valid);
  EXPECT_TRUE(second.fcs_valid);
}

// The verdict is shared but the drop is not: every ONU that checks a bad
// FCS counts and logs its own drop, and an ONU a frame is not addressed
// to never checks it.
TEST(SharedView, BadFcsCountsOnceOnEveryOnuThatChecksIt) {
  constexpr int kOnus = 5;
  Tree tree(kOnus);
  std::vector<std::uint64_t> foreign;  // activation's ranging frames
  for (const auto& onu : tree.onus) {
    ASSERT_EQ(onu->state(), pon::OnuState::kOperational);
    ASSERT_EQ(onu->stats().fcs_drops, 0u);
    foreign.push_back(onu->stats().foreign_frames_seen);
  }

  pon::GemFrame broadcast = control_frame(pon::kBroadcastOnuId, "sn_request");
  broadcast.fcs ^= 1;
  tree.odn.downstream(broadcast);
  for (std::size_t i = 0; i < tree.onus.size(); ++i) {
    EXPECT_EQ(tree.onus[i]->stats().fcs_drops, 1u) << i;
    EXPECT_EQ(tree.onus[i]->stats().foreign_frames_seen, foreign[i]) << i;
  }
  EXPECT_EQ(tree.warnings("bad FCS"), static_cast<std::size_t>(kOnus));

  const std::size_t target = 2;
  pon::GemFrame addressed =
      control_frame(tree.onus[target]->onu_id(), "ranging_time;serial=GNIO0002");
  addressed.fcs ^= 1;
  tree.odn.downstream(addressed);
  for (std::size_t i = 0; i < tree.onus.size(); ++i) {
    const bool mine = i == target;
    EXPECT_EQ(tree.onus[i]->stats().fcs_drops, mine ? 2u : 1u) << i;
    EXPECT_EQ(tree.onus[i]->stats().foreign_frames_seen, foreign[i] + (mine ? 0u : 1u)) << i;
    EXPECT_EQ(tree.onus[i]->state(), pon::OnuState::kOperational) << i;
  }
  EXPECT_EQ(tree.warnings("bad FCS"), static_cast<std::size_t>(kOnus + 1));
}

// A payload that does not decode changes nothing on any receiver, and
// every honest ONU logs it; the same frame without the bad field makes
// the rogue answer, so the rogue's silence is the decode failing.
TEST(SharedView, UndecodableBroadcastChangesNoReceiver) {
  constexpr int kOnus = 4;
  Tree tree(kOnus);
  pon::RogueOnu rogue("GNIO0001", &tree.odn);
  std::vector<std::uint16_t> ids;
  for (const auto& onu : tree.onus) ids.push_back(onu->onu_id());
  const std::uint64_t upstream_before = tree.odn.stats().upstream_frames;

  tree.odn.downstream(control_frame(pon::kBroadcastOnuId, "sn_request;badfield"));
  for (std::size_t i = 0; i < tree.onus.size(); ++i) {
    EXPECT_EQ(tree.onus[i]->state(), pon::OnuState::kOperational) << i;
    EXPECT_EQ(tree.onus[i]->onu_id(), ids[i]) << i;
  }
  EXPECT_FALSE(rogue.activated());
  EXPECT_EQ(tree.odn.stats().upstream_frames, upstream_before);
  EXPECT_EQ(tree.warnings("undecodable control message"), static_cast<std::size_t>(kOnus));

  tree.odn.downstream(control_frame(pon::kBroadcastOnuId, "sn_request"));
  EXPECT_GT(tree.odn.stats().upstream_frames, upstream_before);
}
