#include "ppds/core/session.hpp"

#include <optional>

#include "ppds/common/hex.hpp"
#include "ppds/crypto/sha256.hpp"
#include "ppds/net/framing.hpp"

namespace ppds::core {

namespace {

// Version 2: the hello carries a client-proposed u64 session id; both
// endpoints adopt it after a successful handshake, so every later frame is
// pinned to this session (net/framing.hpp).
// Version 3: every OMPE round is degree 1 over a public feature map
// (m = q + 1, OMPE request header v2); the profile no longer carries a
// declared degree.
constexpr std::uint32_t kProtocolVersion = 3;
constexpr std::uint8_t kMagic[4] = {'P', 'P', 'D', 'S'};

/// Shared hello/ack exchange on a precomputed digest. With \p max_queries
/// the hello also carries the client's u64 query count, accepted in
/// [1, max_queries] and returned; without it (similarity hellos) the result
/// is 0. Returns normally only when both sides agreed; on success both
/// endpoints have adopted the client-proposed session id.
std::uint64_t handshake_server(
    net::Endpoint& channel, const crypto::Digest& mine,
    std::optional<std::size_t> max_queries = std::nullopt) {
  channel.set_stage(net::Stage::kHandshake);
  const Bytes hello = channel.recv();
  ByteReader r(hello);
  const Bytes magic = r.raw(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw ProtocolError("session: bad magic");
  }
  const std::uint32_t version = r.u32();
  const Bytes theirs = r.raw(mine.size());
  const std::uint64_t session_id = r.u64();
  const std::uint64_t count = max_queries ? r.u64() : 0;
  r.expect_end();

  const bool digests_match =
      std::equal(theirs.begin(), theirs.end(), mine.begin());
  const bool count_ok =
      !max_queries || (count >= 1 && count <= *max_queries);
  const bool acceptable =
      version == kProtocolVersion && digests_match && count_ok;

  ByteWriter ack;
  ack.u8(acceptable ? 1 : 0);
  ack.raw(std::span<const std::uint8_t>(mine.data(), mine.size()));
  channel.send(ack.take());

  if (!acceptable) {
    throw ProtocolError(
        version != kProtocolVersion ? "session: protocol version mismatch"
        : !digests_match            ? "session: parameter digest mismatch"
                                    : "session: unacceptable query count");
  }
  // Every post-handshake frame is pinned to the negotiated session id.
  channel.set_session_id(session_id);
  return count;
}

/// Client half; \p count, when given, rides in the hello after the session
/// id.
void handshake_client(net::Endpoint& channel, const crypto::Digest& mine,
                      Rng& rng,
                      std::optional<std::uint64_t> count = std::nullopt) {
  channel.set_stage(net::Stage::kHandshake);
  const std::uint64_t session_id = rng();
  ByteWriter hello;
  hello.raw(std::span<const std::uint8_t>(kMagic, 4));
  hello.u32(kProtocolVersion);
  hello.raw(std::span<const std::uint8_t>(mine.data(), mine.size()));
  hello.u64(session_id);
  if (count) hello.u64(*count);
  channel.send(hello.take());

  const Bytes ack = channel.recv();
  ByteReader r(ack);
  const std::uint8_t status = r.u8();
  const Bytes server_digest = r.raw(mine.size());
  r.expect_end();
  if (status != 1) {
    throw ProtocolError("session: server denied the parameters (digest " +
                        to_hex(server_digest).substr(0, 16) + "... vs ours " +
                        to_hex(mine).substr(0, 16) + "...)");
  }
  channel.set_session_id(session_id);
}

}  // namespace

crypto::Sha256 absorb_profile_parameters(const ClassificationProfile& profile,
                                         unsigned basis_degree) {
  ByteWriter w;
  w.u32(kProtocolVersion);
  w.u64(profile.input_dim);
  w.u64(profile.poly_arity);
  profile.kernel.serialize(w);
  // The monomial basis must match exactly: hash the exponent stream as the
  // generator produces it, one entry at a time (a1a's is 40 MB).
  w.u64(profile.monomial_dag.size());
  crypto::Sha256 h;
  h.update(w.data());
  math::for_each_monomial(profile.input_dim, 1, basis_degree,
                          [&h](const math::Exponents& exps) { h.update(exps); });
  return h;
}

crypto::Digest protocol_digest(const ClassificationProfile& profile,
                               const SchemeConfig& config) {
  crypto::Sha256 h = profile.parameter_midstate();
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(config.ot_engine));
  w.u8(static_cast<std::uint8_t>(config.group));
  // 1 exactly for the private engine. Redundant with the engine byte, but
  // it keeps the fast and silent digests at their pinned values
  // (GoldenProtocolDigests).
  w.u8(config.ot_engine == OtEngine::kPrecomputed ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(config.ompe.backend));
  w.u32(config.ompe.q);
  w.u32(config.ompe.k);
  w.u32(ompe::kFracBits);
  w.f64(ompe::kNodeLo);
  w.f64(ompe::kNodeHi);
  // That is every OmpeParams field: the OMPE point sweeps have no local
  // knobs, and how they chunk across cores never changes a wire byte.
  h.update(w.data());
  return h.finish();
}

void serve_session(const ClassificationServer& server,
                   const ClassificationProfile& profile,
                   const SchemeConfig& config, net::Endpoint& channel,
                   Rng& rng, std::size_t max_queries, OtBundle* external) {
  const std::uint64_t count = handshake_server(
      channel, protocol_digest(profile, config), max_queries);
  server.serve(channel, count, rng, external);
}

std::vector<int> classify_session(
    const ClassificationClient& client, const ClassificationProfile& profile,
    const SchemeConfig& config, net::Endpoint& channel,
    const std::vector<std::vector<double>>& samples, Rng& rng,
    OtBundle* external) {
  detail::require(!samples.empty(), "session: no samples");
  handshake_client(channel, protocol_digest(profile, config), rng,
                   samples.size());
  return client.classify_batch(channel, samples, rng, external);
}

crypto::Digest similarity_digest(const svm::Kernel& kernel,
                                 const DataSpace& space,
                                 const SchemeConfig& config) {
  ByteWriter w;
  w.u32(kProtocolVersion);
  w.u8('S');  // domain separation from the classification digest
  kernel.serialize(w);
  w.f64(space.lo);
  w.f64(space.hi);
  w.f64(space.l0);
  w.f64(space.theta0);
  w.u8(static_cast<std::uint8_t>(config.ot_engine));
  w.u8(static_cast<std::uint8_t>(config.group));
  w.u8(config.ot_engine == OtEngine::kPrecomputed ? 1 : 0);  // as above
  w.u32(config.ompe.q);
  w.u32(config.ompe.k);
  w.f64(ompe::kNodeLo);
  w.f64(ompe::kNodeHi);
  return crypto::sha256(w.data());
}

void serve_similarity_session(const SimilarityServer& server,
                              const svm::Kernel& kernel,
                              const DataSpace& space,
                              const SchemeConfig& config,
                              net::Endpoint& channel, Rng& rng) {
  handshake_server(channel, similarity_digest(kernel, space, config));
  server.serve(channel, rng);
}

double evaluate_similarity_session(const SimilarityClient& client,
                                   const svm::Kernel& kernel,
                                   const DataSpace& space,
                                   const SchemeConfig& config,
                                   net::Endpoint& channel, Rng& rng) {
  handshake_client(channel, similarity_digest(kernel, space, config), rng);
  return client.evaluate(channel, rng);
}

}  // namespace ppds::core
