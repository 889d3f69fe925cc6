#include "obs/telemetry_server.h"

#include <memory>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/report.h"

namespace sensedroid::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string render(const TelemetryServer::Response& resp) {
  std::string out = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                    status_text(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += resp.body;
  return out;
}

}  // namespace

// One HTTP/1.0 exchange: buffer the request up to its header terminator
// (or the byte bound), answer it, and let the reactor close after the
// flush.
class TelemetryServer::Conn final : public net::Session {
 public:
  explicit Conn(TelemetryServer& server) : server_(server) {}

  net::Next on_data(std::string_view in, std::string& out) override {
    // Keep at most one byte past the bound: enough to reject.
    const std::size_t limit = server_.limits_.max_request_bytes;
    request_.append(in.substr(0, limit + 1 - request_.size()));
    if (request_.size() > limit) {
      out = render({400, "text/plain; charset=utf-8", "request too large\n"});
      return net::Next::kReply;
    }
    if (request_.find("\r\n\r\n") == std::string::npos) {
      return net::Next::kRead;  // wait for more bytes (or the deadline)
    }
    const std::string_view line =
        std::string_view(request_).substr(0, request_.find("\r\n"));
    if (!line.starts_with("GET ")) {
      out = render({405, "text/plain; charset=utf-8", "GET only\n"});
      return net::Next::kReply;
    }
    std::string_view path = line.substr(4);
    path = path.substr(0, path.find(' '));
    path = path.substr(0, path.find('?'));
    out = render(server_.handle(path));
    return net::Next::kReply;
  }

  void on_end(bool served) override {
    auto& counter = served ? server_.served_ : server_.dropped_;
    counter.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  TelemetryServer& server_;
  std::string request_;
};

TelemetryServer::TelemetryServer(TelemetrySources sources, std::uint16_t port)
    : sources_(std::move(sources)),
      requested_port_(port),
      reactor_([this] { return std::make_unique<Conn>(*this); }) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  net::Reactor::Config config;
  config.tcp_port = requested_port_;
  config.max_connections = limits_.max_connections;
  config.idle_timeout_s = limits_.idle_timeout_s;
  return reactor_.start(config);
}

void TelemetryServer::stop() { reactor_.stop(); }

TelemetryServer::Response TelemetryServer::handle(
    std::string_view path) const {
  if (path == "/metrics") {
    if (sources_.metrics == nullptr) {
      return {404, "text/plain; charset=utf-8", "no metrics source\n"};
    }
    std::string body = sources_.metrics->to_prometheus();
    if (sources_.health != nullptr) {
      sources_.health->evaluate();
      body += sources_.health->gauges().to_prometheus();
    }
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            std::move(body)};
  }
  if (path == "/healthz") {
    if (sources_.health == nullptr) {
      return {200, "application/json",
              "{\"verdict\":\"healthy\",\"worst\":1,\"zones\":[]}"};
    }
    std::string body = sources_.health->to_json();
    const int status =
        std::string_view(sources_.health->verdict()) == "unhealthy" ? 503
                                                                    : 200;
    return {status, "application/json", std::move(body)};
  }
  if (path == "/report") {
    if (sources_.metrics == nullptr) {
      return {404, "text/plain; charset=utf-8", "no metrics source\n"};
    }
    return {200, "application/json",
            RunReport::from_registry(*sources_.metrics, sources_.report_name,
                                     /*include_wall_clock=*/true)
                .to_json()};
  }
  if (path == "/spans") {
    if (sources_.traces == nullptr) {
      return {404, "text/plain; charset=utf-8", "no trace source\n"};
    }
    return {200, "application/jsonl", sources_.traces->to_jsonl()};
  }
  if (path == "/flight") {
    return {200, "application/jsonl", FlightRecorder::dump_jsonl()};
  }
  return {404, "text/plain; charset=utf-8", "unknown endpoint\n"};
}

}  // namespace sensedroid::obs
