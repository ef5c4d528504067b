#include "ppds/server/scenario.hpp"

#include <sstream>

#include "ppds/common/error.hpp"
#include "ppds/common/rng.hpp"
#include "ppds/svm/smo.hpp"

namespace ppds::server {

namespace {

std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string token;
  while (std::getline(ss, token, ':')) out.push_back(token);
  return out;
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  const std::vector<std::string> tokens = split_tokens(text);
  if (tokens.empty() || tokens.front().empty()) {
    throw InvalidArgument("scenario: empty spec (want "
                          "<dataset>[:linear|:poly][:silent|:secure])");
  }
  ScenarioSpec spec;
  spec.dataset = tokens.front();
  if (!data::spec_by_name(spec.dataset).has_value()) {
    throw InvalidArgument("scenario: unknown dataset '" + spec.dataset +
                          "' (see data/synthetic.hpp for the Table I names)");
  }
  bool kernel_seen = false;
  bool preset_seen = false;
  const auto once = [&](bool& seen, const std::string& what) {
    if (seen) {
      throw InvalidArgument("scenario: second " + what + " token in '" +
                            text + "'");
    }
    seen = true;
  };
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t == "linear" || t == "poly") {
      once(kernel_seen, "kernel");
      spec.polynomial = t == "poly";
    } else if (t == "silent" || t == "secure") {
      once(preset_seen, "preset");
      spec.preset = t == "silent" ? Preset::kSilent : Preset::kSecure;
    } else {
      throw InvalidArgument("scenario: unknown token '" + t + "' in '" +
                            text + "'");
    }
  }
  return spec;
}

std::string ScenarioSpec::to_string() const {
  std::string out = dataset;
  out += polynomial ? ":poly" : ":linear";
  switch (preset) {
    case Preset::kSilent: out += ":silent"; break;
    case Preset::kSecure: out += ":secure"; break;
  }
  return out;
}

Scenario Scenario::make(const std::string& text, std::uint64_t seed) {
  return make(ScenarioSpec::parse(text), seed);
}

Scenario Scenario::make(const ScenarioSpec& spec, std::uint64_t seed) {
  Scenario s;
  s.spec = spec;
  s.dataset = *data::spec_by_name(spec.dataset);
  // The seed REPLACES the recipe's default so (spec text, seed) is the
  // entire determinant of both parties' state.
  s.dataset.seed = splitmix64(seed, 0x5ce0);
  auto [train, test] = data::generate(s.dataset);

  const svm::Kernel kernel =
      spec.polynomial ? svm::Kernel::paper_polynomial(s.dataset.dim)
                      : svm::Kernel::linear();
  const double c = spec.polynomial ? s.dataset.c_poly : s.dataset.c_linear;
  s.server_model = svm::train_svm(train, kernel, {c});

  // The client's private model: trained on an independent draw of the same
  // structure (what two distinct parties would plausibly hold).
  const svm::Dataset client_train = data::generate_pool(
      s.dataset, s.dataset.train_size, splitmix64(seed, 0xc11e));
  s.client_model = svm::train_svm(client_train, kernel, {c});

  s.profile = core::ClassificationProfile::make(s.dataset.dim, kernel);
  s.config = spec.preset == ScenarioSpec::Preset::kSilent
                 ? core::SchemeConfig::silent()
                 : core::SchemeConfig::secure_default();
  s.space = core::DataSpace{};

  s.queries.reserve(test.x.size());
  for (const auto& sample : test.x) s.queries.push_back(sample);
  return s;
}

const char* service_name(Service service) {
  switch (service) {
    case Service::kGoodbye: return "goodbye";
    case Service::kClassification: return "classification";
    case Service::kSimilarity: return "similarity";
    case Service::kHealth: return "health";
  }
  return "unknown";
}

}  // namespace ppds::server
