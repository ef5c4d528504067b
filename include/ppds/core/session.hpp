#pragma once

#include "ppds/core/classification.hpp"
#include "ppds/core/similarity.hpp"

/// \file session.hpp
/// Session layer for the classification protocol: a handshake that verifies
/// both parties agree on ALL public parameters before any private data
/// flows.
///
/// The OMPE sender already rejects requests whose shape disagrees with its
/// parameters, but by then the client has shipped a full request. In a
/// deployment the parties negotiate first: the client sends a hello
/// containing a digest of its (profile, scheme-config) view and the number
/// of queries it intends to run; the server compares digests and either
/// acknowledges or denies. Parameter drift (a different q, another kernel
/// degree, a mismatched monomial basis) is caught in one round trip with an
/// unambiguous error on both sides.
///
/// Wire format (little-endian; see docs/PROTOCOL.md):
///   hello:  "PPDS" magic (4 bytes), u32 protocol version, 32-byte digest,
///           u64 session id (client-drawn, adopted by both endpoints on
///           success; similarity hellos omit the query count), u64 query
///           count
///   ack:    u8 status (1 = accepted, 0 = denied), 32-byte server digest
///           (echoed so a denied client can log both views)
///
/// The handshake itself runs at frame stage kHandshake / session id 0; on
/// an accepting ack both endpoints adopt the client's session id, so every
/// later frame is rejected if it strays across sessions (net/framing.hpp).

namespace ppds::core {

/// Canonical digest of every public protocol parameter: profile shape,
/// kernel hyperparameters, monomial basis, OMPE parameters and group. Two
/// parties with equal digests will interoperate. Finishes a copy of the
/// profile's parameter_midstate() with the config fields, so
/// a call costs O(1) in the basis size; throws InvalidArgument on a profile
/// ClassificationProfile::make() did not build.
crypto::Digest protocol_digest(const ClassificationProfile& profile,
                               const SchemeConfig& config);

/// The profile half of protocol_digest(): SHA-256 over the protocol version,
/// profile shape, kernel and the exponents math::for_each_monomial streams
/// for degrees 1..\p basis_degree (0: linear, no basis); make() keeps it.
crypto::Sha256 absorb_profile_parameters(const ClassificationProfile& profile,
                                         unsigned basis_degree);

/// Server side: performs the handshake, then serves the negotiated number
/// of queries. Throws ProtocolError on any mismatch (after sending the
/// denial so the client fails cleanly too). \p ot is the connection's
/// OtBundle, reused across its sessions (see ClassificationServer::serve);
/// null throws InvalidArgument before the handshake.
void serve_session(const ClassificationServer& server,
                   const ClassificationProfile& profile,
                   const SchemeConfig& config, net::Endpoint& channel,
                   Rng& rng, std::size_t max_queries, OtBundle* ot);

/// Client side: handshakes for samples.size() queries, then classifies them
/// all. Throws ProtocolError if the server denies the parameters.
std::vector<int> classify_session(const ClassificationClient& client,
                                  const ClassificationProfile& profile,
                                  const SchemeConfig& config,
                                  net::Endpoint& channel,
                                  const std::vector<std::vector<double>>& samples,
                                  Rng& rng, OtBundle* ot);

/// Digest of the similarity protocol's public parameters (data space,
/// kernel, scheme config).
crypto::Digest similarity_digest(const svm::Kernel& kernel,
                                 const DataSpace& space,
                                 const SchemeConfig& config);

/// Server side of a similarity session: handshake, then one evaluation
/// over \p ot (null throws InvalidArgument before the handshake).
void serve_similarity_session(const SimilarityServer& server,
                              const svm::Kernel& kernel,
                              const DataSpace& space,
                              const SchemeConfig& config,
                              net::Endpoint& channel, Rng& rng, OtBundle* ot);

/// Client side: handshake, then one evaluation; returns T.
double evaluate_similarity_session(const SimilarityClient& client,
                                   const svm::Kernel& kernel,
                                   const DataSpace& space,
                                   const SchemeConfig& config,
                                   net::Endpoint& channel, Rng& rng,
                                   OtBundle* ot);

}  // namespace ppds::core
