/// MEDICAL NETWORK SCENARIO — nonlinear private diagnosis across hospitals.
///
/// A hospital (Alice) has trained a NONLINEAR (polynomial-kernel) disease
/// classifier on its patient records. A clinic (Bob) wants a second opinion
/// on a patient without transmitting the patient's data, and the hospital
/// will not export its model (a private asset derived from protected
/// records). The nonlinear privacy-preserving classification scheme covers
/// exactly this: the hospital's kernel decision function is expanded over
/// monomials, the clinic transforms the patient vector locally, and an OMPE
/// round plus k-out-of-M OT delivers only the diagnosis sign.
///
/// The demo runs in two modes:
///  * no arguments — both parties in one process over the simulated channel
///    (the original demo), exact-arithmetic (Mersenne-61) backend so
///    borderline diagnoses classify identically to the plain model;
///  * `--serve ADDR` / `--connect ADDR` — hospital and clinic as two REAL
///    processes over a socket (`unix:/path` or `tcp:host:port`), same
///    protocol bytes, with the session-layer handshake verifying that both
///    processes derived identical public parameters:
///
///      ./medical_network --serve unix:/tmp/medical.sock &
///      ./medical_network --connect unix:/tmp/medical.sock

#include <cstdio>
#include <cstring>
#include <string>

#include "ppds/core/classification.hpp"
#include "ppds/core/session.hpp"
#include "ppds/data/synthetic.hpp"
#include "ppds/net/party.hpp"
#include "ppds/net/socket.hpp"
#include "ppds/svm/smo.hpp"

namespace {

using namespace ppds;

constexpr std::size_t kPatients = 12;

/// Everything both parties must agree on, derived deterministically from
/// the dataset spec — run in each process, the handshake digests match.
struct Setup {
  svm::Dataset records;
  svm::Dataset incoming_patients;
  svm::SvmModel model;
  core::ClassificationProfile profile;
  core::SchemeConfig cfg;
};

Setup make_setup() {
  const auto spec = *data::spec_by_name("diabetes");
  auto [records, incoming] = data::generate(spec);
  const auto kernel = svm::Kernel::paper_polynomial(spec.dim);
  auto model = svm::train_svm(records, kernel, {spec.c_poly});

  // Exact arithmetic: the field backend guarantees the SIGN is computed
  // exactly on the fixed-point grid — no borderline-diagnosis flips.
  auto cfg = core::SchemeConfig::fast_simulation();
  cfg.ompe.backend = ompe::Backend::kField;
  cfg.ompe.q = 2;

  auto profile = core::ClassificationProfile::make(spec.dim, kernel);
  std::printf(
      "hospital model: polynomial kernel p=%u over %zu features, %zu SVs\n",
      kernel.degree, spec.dim, model.num_support_vectors());
  std::printf("monomial expansion: %zu features (degrees 1..%u)\n",
              profile.poly_arity, kernel.degree);
  return Setup{std::move(records), std::move(incoming), std::move(model),
               std::move(profile), std::move(cfg)};
}

void print_diagnoses(const Setup& setup, const std::vector<int>& verdicts) {
  std::printf("\n%-10s | %-18s | %-18s | %s\n", "patient", "private verdict",
              "plain-model check", "ground truth");
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const int plain = setup.model.predict(setup.incoming_patients.x[i]);
    std::printf("%-10zu | %-18s | %-18s | %+d\n", i + 1,
                verdicts[i] > 0 ? "positive" : "negative",
                verdicts[i] == plain ? "agrees" : "DISAGREES",
                setup.incoming_patients.y[i]);
  }
}

/// Hospital process: accept ONE clinic connection, serve one session.
int run_server(const std::string& address) {
  const Setup setup = make_setup();
  net::SocketListener listener(net::SocketAddress::parse(address));
  std::printf("hospital listening on %s\n",
              listener.address().to_string().c_str());
  auto channel = listener.accept(net::Deadline::after(
      std::chrono::milliseconds{120000}));
  channel->set_recv_deadline(
      net::Deadline::after(std::chrono::milliseconds{120000}));
  Rng rng(1);
  core::serve_session(
      core::ClassificationServer(setup.model, setup.profile, setup.cfg),
      setup.profile, setup.cfg, *channel, rng, kPatients);
  std::printf("served %zu private diagnoses; sent %llu KiB\n", kPatients,
              static_cast<unsigned long long>(channel->stats().bytes / 1024));
  return 0;
}

/// Clinic process: connect, classify the incoming patients privately.
int run_client(const std::string& address) {
  const Setup setup = make_setup();
  auto channel = net::socket_connect(
      net::SocketAddress::parse(address), {},
      net::Deadline::after(std::chrono::milliseconds{120000}));
  channel->set_recv_deadline(
      net::Deadline::after(std::chrono::milliseconds{120000}));
  Rng rng(2);
  const std::vector<std::vector<double>> patients(
      setup.incoming_patients.x.begin(),
      setup.incoming_patients.x.begin() + kPatients);
  const std::vector<int> verdicts = core::classify_session(
      core::ClassificationClient(setup.profile, setup.cfg), setup.profile,
      setup.cfg, *channel, patients, rng);
  print_diagnoses(setup, verdicts);
  std::printf(
      "\nwire per diagnosis: ~%llu KiB (monomial covers dominate)\n",
      static_cast<unsigned long long>(channel->stats().bytes / kPatients /
                                      1024));
  return 0;
}

/// Original single-process demo over the simulated channel.
int run_in_process() {
  const Setup setup = make_setup();
  core::ClassificationServer hospital(setup.model, setup.profile, setup.cfg);
  core::ClassificationClient clinic(setup.profile, setup.cfg);

  auto outcome = net::run_two_party(
      [&](net::Endpoint& ch) {
        Rng rng(1);
        hospital.serve(ch, kPatients, rng);
        return 0;
      },
      [&](net::Endpoint& ch) {
        Rng rng(2);
        std::vector<int> diagnoses;
        for (std::size_t i = 0; i < kPatients; ++i) {
          diagnoses.push_back(
              clinic.classify(ch, setup.incoming_patients.x[i], rng));
        }
        return diagnoses;
      });
  print_diagnoses(setup, outcome.b);
  std::printf(
      "\nwire per diagnosis: ~%llu KiB (monomial covers dominate)\n",
      static_cast<unsigned long long>(outcome.b_sent.bytes / kPatients /
                                      1024));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Private nonlinear diagnosis across a medical network ===\n");
  try {
    if (argc == 3 && std::strcmp(argv[1], "--serve") == 0) {
      return run_server(argv[2]);
    }
    if (argc == 3 && std::strcmp(argv[1], "--connect") == 0) {
      return run_client(argv[2]);
    }
    if (argc != 1) {
      std::fprintf(stderr,
                   "usage: %s [--serve ADDR | --connect ADDR]\n"
                   "  ADDR: unix:/path/to.sock or tcp:host:port\n",
                   argv[0]);
      return 2;
    }
    return run_in_process();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
