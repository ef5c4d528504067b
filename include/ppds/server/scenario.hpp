#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ppds/core/classification.hpp"
#include "ppds/core/config.hpp"
#include "ppds/core/similarity.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/svm/model.hpp"

/// \file scenario.hpp
/// Deterministic protocol scenarios shared by the daemon, the CLI, the
/// server bench and the tests.
///
/// Both ends of a socket session must agree on every public parameter
/// (kernel, monomial basis, SchemeConfig, data space) or the handshake
/// digest check denies the session. Out-of-band agreement over a real
/// socket means BOTH processes reconstruct the same parameters from a
/// short text spec plus a seed: `ppdsd --scenario diabetes:poly` and
/// `ppds-cli --scenario diabetes:poly` derive identical digests (and
/// identical models, so results are checkable against the plain model).
///
/// Spec grammar:
///   <dataset>[:linear|:poly][:silent|:secure]
///   dataset — any Table I synthetic dataset name (data/synthetic.hpp)
///   kernel  — linear (default) or the paper's polynomial kernel
///   preset  — SchemeConfig preset: silent (default; q=4, k=2) or secure
///             (q=8, k=3); both run the silent OT engine
/// Each token may appear once: a second kernel or preset token is an
/// error, not an override.
/// Everything downstream (trained models, query samples) is a pure
/// function of (spec text, seed).

namespace ppds::server {

/// Parsed scenario spec (see file comment for the grammar).
struct ScenarioSpec {
  std::string dataset = "diabetes";
  bool polynomial = false;
  enum class Preset { kSilent, kSecure };
  Preset preset = Preset::kSilent;

  /// Parses the grammar in the file comment; throws InvalidArgument on
  /// unknown datasets or tokens and on a repeated kernel or preset token.
  static ScenarioSpec parse(const std::string& text);

  std::string to_string() const;
};

/// Everything a party needs to run sessions under one scenario. The server
/// side uses server_model; the client side uses client_model (a model
/// trained on an independent sample of the same distribution — the natural
/// "two parties, two private models" setup for similarity evaluation) and
/// the query pool.
struct Scenario {
  ScenarioSpec spec;
  data::DatasetSpec dataset;
  core::ClassificationProfile profile;
  core::SchemeConfig config;
  core::DataSpace space;
  svm::SvmModel server_model;
  svm::SvmModel client_model;
  /// Held-out samples for classification queries (test split, normalized
  /// the same way the models were trained).
  std::vector<std::vector<double>> queries;

  /// Builds the scenario deterministically from (text, seed): equal
  /// arguments in two processes yield equal protocol digests and equal
  /// models. Trains two small SVMs, so construction costs ~a second.
  static Scenario make(const std::string& text, std::uint64_t seed);
  static Scenario make(const ScenarioSpec& spec, std::uint64_t seed);
};

/// Service selector a client sends at the top of each session on a
/// connection (one u8 payload at stage kNone / session 0). kGoodbye ends
/// the connection cleanly; anything unknown is a ProtocolError.
enum class Service : std::uint8_t {
  kGoodbye = 0,
  kClassification = 1,
  kSimilarity = 2,
  /// Health probe: the daemon answers with a DaemonStatsSnapshot frame
  /// (server/stats.hpp) and keeps the connection alive. Served even while
  /// draining, so probes can watch a shutdown progress.
  kHealth = 3,
};

const char* service_name(Service service);

}  // namespace ppds::server
