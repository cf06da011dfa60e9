// Table II reproduction: production and consumption average patterns.
//
// (a) Potential for advancing sends — percent of the production phase
//     needed to produce the 1st element / quarter / half / whole message.
// (b) Potential for post-postponing receptions — percent of the consumption
//     phase that can be passed upon reception of nothing / quarter / half.
//
// Paper reference values (Table II):
//   production: ideal 0/25/50/100; NAS-BT 99.1/99.4/99.6/100;
//     NAS-CG 4.0/28.0/52.0/100; Sweep3D 66.3/94.8/98.2/99.8;
//     POP 95.5/96.6/97.8/100; SPECFEM3D 95.3/96.5/97.7/98.9; Alya 98.8/-/-/-
//   consumption: ideal 0/25/50; NAS-BT 13.7/13.7/13.7;
//     NAS-CG 2.2/18.4/34.5; Sweep3D ~0/~0/~0; POP 3.5/3.5/3.5;
//     SPECFEM3D ~0/~0/~0; Alya 0.4/-/-
#include <cstdio>

#include "analysis/patterns.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace osim;
  bench::BenchSetup setup;
  if (!setup.parse("Table II: production/consumption average patterns", argc,
                   argv)) {
    return 0;
  }

  TextTable production(
      {"app", "1st element", "quarter", "half", "whole", "messages"});
  production.set_title(
      "Table II(a): percent of production phase needed to produce a part of "
      "a message");
  production.add_row({"ideal", "0%", "25%", "50%", "100%", "-"});

  TextTable consumption(
      {"app", "nothing", "quarter", "half", "messages"});
  consumption.set_title(
      "Table II(b): percent of consumption phase passable upon reception of "
      "a part of a message");
  consumption.add_row({"ideal", "0%", "25%", "50%", "-"});

  CsvWriter csv(setup.out_path("table2_patterns.csv"),
                {"app", "metric", "portion", "percent"});

  TextTable per_buffer({"app", "buffer", "prod 1st", "prod whole",
                        "cons nothing", "messages"});
  per_buffer.set_title(
      "per-buffer breakdown (which buffers drive each application's "
      "patterns)");

  for (const apps::MiniApp* app : setup.selected_apps()) {
    const tracer::TracedRun traced = bench::trace(setup, *app);
    const auto prod = analysis::production_stats(traced.annotated);
    const auto cons = analysis::consumption_stats(traced.annotated);

    if (prod.messages > 0) {
      production.add_row({app->name(), cell_percent(prod.first_element),
                          cell_percent(prod.quarter),
                          cell_percent(prod.half), cell_percent(prod.whole),
                          std::to_string(prod.messages)});
      csv.add_row({app->name(), "production", "first",
                   cell(prod.first_element * 100)});
      csv.add_row(
          {app->name(), "production", "quarter", cell(prod.quarter * 100)});
      csv.add_row({app->name(), "production", "half", cell(prod.half * 100)});
      csv.add_row(
          {app->name(), "production", "whole", cell(prod.whole * 100)});
    } else if (prod.unchunkable_messages > 0) {
      // The paper's Alya case: one-element transfers cannot be chunked, so
      // only the whole-message column is reported.
      production.add_row({app->name(), cell_percent(prod.unchunkable_whole),
                          "-", "-", "-",
                          std::to_string(prod.unchunkable_messages)});
      csv.add_row({app->name(), "production", "whole",
                   cell(prod.unchunkable_whole * 100)});
    }

    for (const auto& row : analysis::buffer_pattern_report(traced)) {
      const bool chunkable = row.production.messages > 0;
      per_buffer.add_row(
          {app->name(), row.buffer,
           chunkable ? cell_percent(row.production.first_element)
                     : (row.production.unchunkable_messages > 0
                            ? cell_percent(row.production.unchunkable_whole)
                            : std::string("-")),
           chunkable ? cell_percent(row.production.whole) : std::string("-"),
           row.consumption.messages > 0
               ? cell_percent(row.consumption.nothing)
               : (row.consumption.unchunkable_messages > 0
                      ? cell_percent(row.consumption.unchunkable_nothing)
                      : std::string("-")),
           std::to_string(row.production.messages +
                          row.production.unchunkable_messages +
                          row.consumption.messages +
                          row.consumption.unchunkable_messages)});
    }

    if (cons.messages > 0) {
      consumption.add_row({app->name(), cell_percent(cons.nothing),
                           cell_percent(cons.quarter),
                           cell_percent(cons.half),
                           std::to_string(cons.messages)});
      csv.add_row(
          {app->name(), "consumption", "nothing", cell(cons.nothing * 100)});
      csv.add_row(
          {app->name(), "consumption", "quarter", cell(cons.quarter * 100)});
      csv.add_row({app->name(), "consumption", "half", cell(cons.half * 100)});
    } else if (cons.unchunkable_messages > 0) {
      consumption.add_row({app->name(),
                           cell_percent(cons.unchunkable_nothing), "-", "-",
                           std::to_string(cons.unchunkable_messages)});
      csv.add_row({app->name(), "consumption", "nothing",
                   cell(cons.unchunkable_nothing * 100)});
    }
  }

  std::printf("%s\n%s\n%s\n", production.render().c_str(),
              consumption.render().c_str(), per_buffer.render().c_str());
  std::printf("CSV written to %s\n",
              setup.out_path("table2_patterns.csv").c_str());
  return setup.finish();
} catch (const std::exception& e) {
  return osim::bench::report_error(e);
}
