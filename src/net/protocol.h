#pragma once
// net::protocol — the one definition of noodled's newline-delimited wire
// grammar, which net::ScanServer speaks on stdin and over TCP alike: a
// script piping request lines into stdin and a client sending the same
// lines over a socket read byte-identical verdict lines.
//
// Request line:
//
//   [spec ":"] *(flag " ") body
//
//   spec   model name or "name@version" — only honoured when the name is
//          actually registered (a Windows-style path "C:..." or an inline
//          `assign x = a ? b : c;` is never mis-split);
//   flag   "~deadline=MS"  per-request deadline in milliseconds;
//          "~inline"       body is one-line Verilog source, not a path
//                          (Verilog is whitespace-insensitive, so a
//                          client can flatten newlines to spaces);
//   body   a filesystem path (default) or inline RTL.
//
// Response line (tab-separated, one per request, in request order):
//
//   TROJAN-INFECTED|trojan-free  p=P  region=R  model=N@V  [lint=..]
//       [trace=..]  echo
//   STATUS  -  -  model=N  echo        # STATUS in {parse-error, read-error,
//                                      #   no-model, TIMEOUT, BUSY,
//                                      #   bad-request}
//
// Both shapes keep one awk field per attribute; the echo field is the
// request's path, or "<inline>" for inline RTL.

#include <chrono>
#include <functional>
#include <string>
#include <string_view>

#include "core/fitted_model.h"

namespace noodle::net::protocol {

/// Echo field for inline-RTL requests (the source itself is not echoed).
inline constexpr const char* kInlineEcho = "<inline>";

/// A parsed request line. When `error` is non-empty the line violated the
/// grammar and the caller answers status_line("bad-request", ...).
struct RequestLine {
  std::string spec;  ///< model spec string; empty = serve with the default
  std::string body;  ///< path, or inline RTL when inline_rtl
  std::chrono::milliseconds deadline{0};  ///< zero = none requested
  bool inline_rtl = false;
  std::string error;
};

/// Parses one request line. `is_model(name)` decides whether a "prefix:"
/// names a registered model (the server answers it with a registry probe),
/// so paths containing ':' keep working. The body is the one part copied
/// out of `line`.
RequestLine parse_request_line(std::string_view line,
                               const std::function<bool(const std::string&)>& is_model);

/// "{TF}", "{TI}", "{TF,TI}" (uncertain), or "{}" (empty region).
std::string region_text(const cp::PredictionRegion& region);

/// The full verdict line for a scanned report (no trailing newline). The
/// lint= column lists the total count and the first findings as CODE@line;
/// the trace= column lists the request's trace id and per-stage times in
/// microseconds. Each column stays one awk field.
std::string verdict_line(const core::DetectionReport& report, const std::string& echo,
                         bool trace_on);

/// The 5-field failure/status shape: "STATUS\t-\t-\tmodel=MODEL\tECHO".
std::string status_line(const char* status, const std::string& model,
                        const std::string& echo);

}  // namespace noodle::net::protocol
