#include "harness/trace_printer.h"

#include <algorithm>
#include <cctype>

#include "common/table_printer.h"

namespace robustqp {

namespace {

std::string StepPlanLabel(const ExecutionStep& step) {
  std::string name = step.plan_name;
  if (step.spill_dim >= 0 && !name.empty()) {
    // Spill-mode executions are conventionally lower-cased (p7 vs P7).
    name[0] = static_cast<char>(std::tolower(static_cast<unsigned char>(name[0])));
    name += "[e" + std::to_string(step.spill_dim + 1) + "]";
  }
  return name;
}

}  // namespace

void PrintExecutionTrace(const Ess&, const DiscoveryResult& result,
                         std::ostream& os) {
  TablePrinter table({"step", "contour", "plan", "budget", "charged", "done",
                      "q_run"});
  int n = 0;
  for (const ExecutionStep& step : result.steps) {
    std::string qrun = "(";
    for (size_t d = 0; d < step.qrun.size(); ++d) {
      if (d > 0) qrun += ", ";
      qrun += TablePrinter::Num(step.qrun[d] * 100.0, 3) + "%";
    }
    qrun += ")";
    table.AddRow({std::to_string(++n), "IC" + std::to_string(step.contour + 1),
                  StepPlanLabel(step), TablePrinter::Num(step.budget, 0),
                  TablePrinter::Num(step.cost_charged, 0),
                  step.completed ? "yes" : "no", qrun});
  }
  table.Print(os);
  os << "total cost: " << TablePrinter::Num(result.total_cost, 0)
     << (result.completed ? "  (query completed at contour IC" +
                                std::to_string(result.final_contour + 1) + ")"
                          : "  (DID NOT COMPLETE)")
     << "\n";
}

void PrintContourDrilldown(const Ess& ess, const DiscoveryResult& result,
                           std::ostream& os, double seconds_per_unit) {
  std::vector<std::string> header;
  header.push_back("contour");
  for (int d = 0; d < ess.dims(); ++d) {
    header.push_back(std::string("e").append(std::to_string(d + 1)) + " (" +
                     ess.query().EppLabel(d) + ")");
  }
  header.push_back(seconds_per_unit > 0.0 ? "time (s)" : "cum. cost");
  TablePrinter table(header);

  double cum = 0.0;
  for (const ExecutionStep& step : result.steps) {
    cum += step.cost_charged;
    std::vector<std::string> row;
    row.push_back(std::to_string(step.contour + 1));
    for (int d = 0; d < ess.dims(); ++d) {
      std::string cell =
          step.qrun.empty()
              ? "-"
              : TablePrinter::Num(step.qrun[static_cast<size_t>(d)] * 100.0, 3);
      if (d == step.spill_dim || (step.spill_dim < 0 && d == 0)) {
        cell += " (" + StepPlanLabel(step) + ")";
      }
      row.push_back(std::move(cell));
    }
    row.push_back(TablePrinter::Num(
        seconds_per_unit > 0.0 ? cum * seconds_per_unit : cum,
        seconds_per_unit > 0.0 ? 4 : 1));
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

}  // namespace robustqp
