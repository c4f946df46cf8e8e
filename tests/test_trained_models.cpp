// Pins the paper set-up's trained interference models byte for byte.
//
// The paper testbed at seed 42 profiles the eight benchmarks, then each
// model family (WMM, LM, NLM, NLM-log, NLM-noDom0) is trained on the
// same training sets. The golden records, per application and response,
// what each family exposes of its fit (selected terms, AIC, SSE,
// Gauss-Newton refinement) and the family's 8 x 9 prediction tables
// (the empty machine, then each of the eight co-runners), every double
// as its shortest round-trip text. Any change to the stepwise search,
// the OLS/QR arithmetic or the Gauss-Newton refinement that moves a
// model bit shows up here before it reaches a scheduling result.
#include <gtest/gtest.h>

#include <charconv>
#include <optional>
#include <sstream>
#include <string>

#include "core/tracon.hpp"
#include "golden.hpp"
#include "model/linear.hpp"
#include "model/nonlinear.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::core {
namespace {

std::string shortest(double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void write_model(std::ostream& os, const std::string& app,
                 const model::InterferenceModel& m) {
  os << "model " << app << ' ' << model::response_name(m.response());
  if (const auto* lm = dynamic_cast<const model::LinearModel*>(&m)) {
    os << " terms " << lm->num_terms() << " aic "
       << shortest(lm->training_aic());
  } else if (const auto* nlm =
                 dynamic_cast<const model::NonlinearModel*>(&m)) {
    os << " terms " << nlm->num_terms() << " aic "
       << shortest(nlm->training_aic()) << " sse "
       << shortest(nlm->training_sse()) << " refined "
       << (nlm->refined() ? 1 : 0);
  }
  os << '\n';
}

TEST(TrainedModels, PaperSetUpMatchesGolden) {
  Tracon system;  // paper testbed, seed 42
  const auto& apps = workload::paper_benchmarks();
  system.register_applications(apps);
  std::ostringstream os;
  for (model::ModelKind kind :
       {model::ModelKind::kWmm, model::ModelKind::kLinear,
        model::ModelKind::kNonlinear, model::ModelKind::kNonlinearLog,
        model::ModelKind::kNonlinearNoDom0}) {
    system.train(kind);
    os << "family " << model::model_kind_name(kind) << '\n';
    for (std::size_t a = 0; a < apps.size(); ++a) {
      write_model(os, apps[a].name, *system.models(a).runtime);
      write_model(os, apps[a].name, *system.models(a).iops);
    }
    const sched::TablePredictor& table = system.predictor();
    for (const char* response : {"runtime", "iops"}) {
      for (std::size_t t = 0; t < apps.size(); ++t) {
        os << "table " << response << ' ' << apps[t].name;
        for (std::size_t b = 0; b <= apps.size(); ++b) {
          // The empty machine first, then co-runner classes 0..7.
          std::optional<std::size_t> nb;
          if (b > 0) nb = b - 1;
          const double v = response == std::string("runtime")
                               ? table.predict_runtime(t, nb)
                               : table.predict_iops(t, nb);
          os << ' ' << shortest(v);
        }
        os << '\n';
      }
    }
  }
  golden::expect_matches("trained_models_paper.txt", os.str());
}

}  // namespace
}  // namespace tracon::core
