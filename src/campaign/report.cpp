#include "campaign/report.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "trace/hash.h"
#include "trace/trace_io.h"
#include "util/csv.h"
#include "util/fs.h"
#include "util/record.h"

namespace ccfuzz::campaign {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Result<std::string> json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) return Error::parse("dangling escape in string");
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned v = 0;
        // Exactly four hex digits naming a byte: what json_escape emits.
        const std::string_view digits = s.substr(i + 1, 4);
        if (digits.size() != 4 || !record::parse_number(digits, v, 16) ||
            v > 0xFF) {
          return Error::parse("bad \\u escape in string");
        }
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default:
        return Error::parse(std::string("unknown escape \\") + s[i]);
    }
  }
  return out;
}

namespace {

/// Per-flow goodputs joined by `sep` — the one place their formatting lives.
std::string join_flow_goodputs(const fuzz::Evaluation& e, char sep) {
  std::string out;
  for (std::size_t i = 0; i < e.flow_goodput_mbps.size(); ++i) {
    if (i) out += sep;
    out += format_double(e.flow_goodput_mbps[i]);
  }
  return out;
}

/// Per-flow goodputs as a compact JSON array ("[1.2,3.4]").
std::string flow_goodputs_json(const fuzz::Evaluation& e) {
  return '[' + join_flow_goodputs(e, ',') + ']';
}

/// Per-flow goodputs as a ';'-joined CSV cell ("1.2;3.4"); "-" when absent.
std::string flow_goodputs_csv(const fuzz::Evaluation& e) {
  if (e.flow_goodput_mbps.empty()) return "-";
  return join_flow_goodputs(e, ';');
}

/// Writes `body` whole or not at all: a failed write (ENOSPC, EIO) throws
/// and leaves no truncated file at `path`.
void write_file(const std::filesystem::path& path, const std::string& body) {
  if (Error e = write_file_atomic(path.string(), body, /*sync=*/false)) {
    throw std::runtime_error("failed to write " + path.string() + ": " +
                             e.message);
  }
}

}  // namespace

// Cell names are free-form user input and must not be able to shift a
// summary row.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string sanitize_cell_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

const char* summary_csv_header() {
  return "cell,cca,mode,score,flows,generations,evaluations,simulations,"
         "cache_hits,archive_cells,coverage_bits,best_score,"
         "best_goodput_mbps,best_flow_goodputs_mbps,"
         "best_jain_fairness,winner_hash\n";
}

std::string to_json(const CampaignReport& report) {
  std::ostringstream os;
  os << "{\n  \"interrupted\": " << (report.interrupted ? "true" : "false")
     << ",\n  \"quarantined\": " << report.quarantined
     << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellResult& r = report.cells[i];
    const std::string dir = sanitize_cell_name(r.cell.name);
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(r.cell.name) << "\",\n";
    os << "      \"cca\": \"" << json_escape(r.cell.cca) << "\",\n";
    os << "      \"mode\": \"" << scenario::to_string(r.cell.scenario.mode)
       << "\",\n";
    os << "      \"score\": \"" << json_escape(score_name(r.cell)) << "\",\n";
    os << "      \"flows\": " << r.cell.scenario.flow_count() << ",\n";
    os << "      \"generations\": " << r.history.size() << ",\n";
    os << "      \"evaluations\": " << (r.simulations + r.cache_hits) << ",\n";
    os << "      \"simulations\": " << r.simulations << ",\n";
    os << "      \"cache_hits\": " << r.cache_hits << ",\n";
    if (r.archive) {
      os << "      \"archive_cells\": " << r.archive->filled() << ",\n";
      os << "      \"coverage_bits\": " << r.archive->union_bits() << ",\n";
      os << "      \"archive_file\": \"" << json_escape(dir)
         << "/archive.txt\",\n";
    }
    os << "      \"best_score\": " << format_double(r.best_score()) << ",\n";
    os << "      \"winners\": [\n";
    for (std::size_t w = 0; w < r.winners.size(); ++w) {
      const Finding& f = r.winners[w];
      os << "        {\"hash\": \"" << trace::hash_hex(f.trace_hash)
         << "\", \"score\": " << format_double(f.eval.score.total())
         << ", \"goodput_mbps\": " << format_double(f.eval.goodput_mbps)
         << ", \"flow_goodputs_mbps\": " << flow_goodputs_json(f.eval)
         << ", \"jain_fairness\": " << format_double(f.eval.jain_fairness)
         << ", \"trace_packets\": " << f.genome.size()
         << ", \"rtos\": " << f.eval.rto_count
         << ", \"stalled\": " << (f.eval.stalled ? "true" : "false")
         << ", \"trace_file\": \"" << json_escape(dir) << "/winner_" << w
         << ".trace\"}" << (w + 1 < r.winners.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void write_report(const CampaignReport& report, const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path root(dir);
  fs::create_directories(root);

  // summary.csv — one row per cell.
  {
    std::ostringstream os;
    os << summary_csv_header();
    for (const CellResult& r : report.cells) {
      os << csv_field(r.cell.name) << ',' << csv_field(r.cell.cca) << ','
         << scenario::to_string(r.cell.scenario.mode) << ','
         << csv_field(score_name(r.cell)) << ','
         << r.cell.scenario.flow_count() << ',' << r.history.size() << ','
         << (r.simulations + r.cache_hits) << ',' << r.simulations << ','
         << r.cache_hits << ','
         << (r.archive ? r.archive->filled() : 0) << ','
         << (r.archive ? r.archive->union_bits() : 0) << ','
         << format_double(r.best_score()) << ','
         << format_double(r.winners.empty()
                              ? 0.0
                              : r.winners.front().eval.goodput_mbps)
         << ','
         << (r.winners.empty() ? std::string("-")
                               : flow_goodputs_csv(r.winners.front().eval))
         << ','
         << format_double(r.winners.empty()
                              ? 1.0
                              : r.winners.front().eval.jain_fairness)
         << ','
         << (r.winners.empty() ? std::string("-")
                               : trace::hash_hex(r.winners.front().trace_hash))
         << '\n';
    }
    write_file(root / "summary.csv", os.str());
  }

  write_file(root / "summary.json", to_json(report));

  for (const CellResult& r : report.cells) {
    const fs::path cell_dir = root / sanitize_cell_name(r.cell.name);
    fs::create_directories(cell_dir);
    {
      // Hand-rolled (not CsvWriter): the per-flow goodput column is a
      // ';'-joined list, like best_flow_goodputs_mbps in summary.csv.
      std::ostringstream os;
      os << "generation,best_score,mean_score,top20_packets_sent,"
            "top20_goodput_mbps,top20_jain_fairness,"
            "top20_flow_goodputs_mbps,stalled,evaluations,"
            "archive_cells,archive_new_cells,coverage_bits\n";
      for (const fuzz::GenStats& gs : r.history) {
        std::string flow_goodputs;
        for (std::size_t f = 0; f < gs.topk_mean_flow_goodput_mbps.size();
             ++f) {
          if (f) flow_goodputs += ';';
          flow_goodputs += format_double(gs.topk_mean_flow_goodput_mbps[f]);
        }
        os << gs.generation << ',' << format_double(gs.best_score) << ','
           << format_double(gs.mean_score) << ','
           << format_double(gs.topk_mean_packets_sent) << ','
           << format_double(gs.topk_mean_goodput_mbps) << ','
           << format_double(gs.topk_mean_jain_fairness) << ','
           << (flow_goodputs.empty() ? "-" : flow_goodputs) << ','
           << gs.stalled_count << ',' << gs.evaluations << ','
           << gs.archive_cells << ',' << gs.archive_new_cells << ','
           << gs.coverage_bits << '\n';
      }
      write_file(cell_dir / "history.csv", os.str());
    }
    for (std::size_t w = 0; w < r.winners.size(); ++w) {
      trace::save_trace(
          (cell_dir / ("winner_" + std::to_string(w) + ".trace")).string(),
          r.winners[w].genome);
    }
    // The archive is the resumable artifact: a later campaign pointing
    // resume_dir at this tree continues filling these cells.
    if (r.archive) {
      r.archive->save_file((cell_dir / "archive.txt").string());
    }
  }
}

}  // namespace ccfuzz::campaign
