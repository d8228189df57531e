#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "apps/apps.hh"
#include "core/system.hh"
#include "kernelc/compile_cache.hh"
#include "service/wire.hh"

namespace imagine::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void
badParam(const std::string &msg)
{
    throw ProtocolError("bad-request", msg);
}

int
paramInt(const json::Value &v, const std::string &key)
{
    try {
        int64_t i = v.asI64();
        if (i < INT32_MIN || i > INT32_MAX)
            badParam("params." + key + ": out of int range");
        return static_cast<int>(i);
    } catch (const json::ParseError &) {
        badParam("params." + key + ": expected an integer");
    }
}

/** Apply "params" members onto an app config via a field whitelist. */
template <typename Cfg, size_t N>
Cfg
appConfig(const RunRequest &req,
          const std::pair<const char *, int Cfg::*> (&fields)[N])
{
    Cfg cfg;
    if (req.params.isObject()) {
        for (const auto &[key, value] : req.params.object) {
            bool known = false;
            for (const auto &[name, member] : fields) {
                if (key == name) {
                    cfg.*member = paramInt(value, key);
                    known = true;
                    break;
                }
            }
            if (!known)
                badParam("params: unknown field \"" + key + "\" for " +
                         req.workload);
        }
    } else if (!req.params.isNull()) {
        badParam("params: expected an object");
    }
    if (req.seedSet)
        cfg.seed = req.seed;
    return cfg;
}

/** p-th percentile (0..100) of @p values; 0 when empty. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string
fmtMs(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

} // namespace

apps::AppResult
runWorkload(ImagineSystem &sys, const RunRequest &req)
{
    using apps::DepthConfig;
    using apps::MpegConfig;
    using apps::QrdConfig;
    using apps::RtslConfig;
    if (req.workload == "depth") {
        static constexpr std::pair<const char *, int DepthConfig::*>
            fields[] = {{"width", &DepthConfig::width},
                        {"height", &DepthConfig::height},
                        {"disparities", &DepthConfig::disparities}};
        return apps::runDepth(sys, appConfig<DepthConfig>(req, fields));
    }
    if (req.workload == "mpeg") {
        static constexpr std::pair<const char *, int MpegConfig::*>
            fields[] = {{"width", &MpegConfig::width},
                        {"height", &MpegConfig::height},
                        {"frames", &MpegConfig::frames}};
        return apps::runMpeg(sys, appConfig<MpegConfig>(req, fields));
    }
    if (req.workload == "qrd") {
        static constexpr std::pair<const char *, int QrdConfig::*>
            fields[] = {{"rows", &QrdConfig::rows},
                        {"cols", &QrdConfig::cols}};
        return apps::runQrd(sys, appConfig<QrdConfig>(req, fields));
    }
    if (req.workload == "rtsl") {
        static constexpr std::pair<const char *, int RtslConfig::*>
            fields[] = {{"screen", &RtslConfig::screen},
                        {"triangles", &RtslConfig::triangles},
                        {"batch", &RtslConfig::batch}};
        return apps::runRtsl(sys, appConfig<RtslConfig>(req, fields));
    }
    throw ProtocolError("unknown-workload",
                        "unknown workload \"" + req.workload + "\"");
}

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.queueCapacity),
      batch_(cfg_.workers < 1 ? 1 : cfg_.workers)
{
    statsReg_.scalar("service.accepted", &counters_.accepted);
    statsReg_.scalar("service.rejectedQueueFull",
                     &counters_.rejectedQueueFull);
    statsReg_.scalar("service.rejectedDraining",
                     &counters_.rejectedDraining);
    statsReg_.scalar("service.badRequests", &counters_.badRequests);
    statsReg_.scalar("service.badFrames", &counters_.badFrames);
    statsReg_.scalar("service.completed", &counters_.completed);
    statsReg_.scalar("service.succeeded", &counters_.succeeded);
    statsReg_.scalar("service.failed", &counters_.failed);
    statsReg_.scalar("service.canceled", &counters_.canceled);
    statsReg_.scalar("service.deadlineExpired",
                     &counters_.deadlineExpired);
    statsReg_.scalar("service.connections", &counters_.connections);
    statsReg_.scalar("service.queueDepth", [this] {
        return static_cast<uint64_t>(queue_.depth());
    });
    statsReg_.scalar("kernelc.cacheHits", [] {
        return kernelc::CompileCache::instance().hits();
    });
    statsReg_.scalar("kernelc.cacheMisses", [] {
        return kernelc::CompileCache::instance().misses();
    });
    statsReg_.scalar("kernelc.loweredCacheHits", [] {
        return kernelc::CompileCache::instance().loweredHits();
    });
    statsReg_.scalar("kernelc.loweredCacheMisses", [] {
        return kernelc::CompileCache::instance().loweredMisses();
    });
    statsReg_.scalar("kernelc.cacheEntries", [] {
        return static_cast<uint64_t>(
            kernelc::CompileCache::instance().size());
    });
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    auto fatal = [](const std::string &why) {
        throw std::runtime_error("isimd: " + why + ": " +
                                 std::strerror(errno));
    };
    if (!cfg_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("socket(AF_UNIX)");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (cfg_.unixPath.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("isimd: unix path too long: " +
                                     cfg_.unixPath);
        std::strncpy(addr.sun_path, cfg_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(cfg_.unixPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("bind(" + cfg_.unixPath + ")");
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            fatal("socket(AF_INET)");
        int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(cfg_.port));
        std::string host =
            cfg_.host == "localhost" ? "127.0.0.1" : cfg_.host;
        if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
            throw std::runtime_error("isimd: bad listen host: " +
                                     cfg_.host);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("bind(" + host + ":" + std::to_string(cfg_.port) +
                  ")");
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            port_ = ntohs(bound.sin_port);
    }
    if (::listen(listenFd_, 128) < 0)
        fatal("listen");

    {
        std::lock_guard<std::mutex> lk(mu_);
        state_ = State::Serving;
    }
    poolThread_ = std::thread([this] {
        batch_.runSettled(batch_.threads(),
                          [this](int) { return workerLoop(); });
    });
    reaperThread_ = std::thread([this] { reaperLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return;     // listener closed: shutting down
        }
        std::lock_guard<std::mutex> lk(connMu_);
        connFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters_.connections;
    }
    std::string payload;
    while (true) {
        WireStatus ws = readFrame(fd, payload, cfg_.maxFrameBytes);
        if (ws == WireStatus::Eof)
            break;
        if (ws == WireStatus::BadMagic || ws == WireStatus::TooLarge) {
            // Answerable garbage: say what was wrong, then close (the
            // stream offset is unsynchronized past this point).
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++counters_.badFrames;
            }
            writeFrame(fd, makeErrorResponse(
                               "request", 0, "bad-request",
                               std::string("malformed frame: ") +
                                   wireStatusName(ws)));
            break;
        }
        if (ws != WireStatus::Ok) {
            // Truncated/IO: nothing coherent to answer to.
            std::lock_guard<std::mutex> lk(mu_);
            ++counters_.badFrames;
            break;
        }
        std::string response = handleFrame(payload);
        if (!writeFrame(fd, response))
            break;
    }
    ::close(fd);
}

std::string
Server::handleFrame(const std::string &payload)
{
    Request req;
    try {
        req = parseRequest(payload);
    } catch (const ProtocolError &e) {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters_.badRequests;
        return makeErrorResponse("request", 0, e.code, e.what());
    }
    switch (req.op) {
      case Op::Ping:
        return makePingResponse();
      case Op::Stats:
        return handleStats();
      case Op::Cancel:
        return handleCancel(req.cancelTag);
      case Op::Drain:
        return handleDrain();
      case Op::Run:
        return handleRun(std::move(req.run));
    }
    return makeErrorResponse("request", 0, "bad-request", "bad op");
}

std::string
Server::handleRun(RunRequest req)
{
    auto job = std::make_shared<Job>();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ != State::Serving) {
            ++counters_.rejectedDraining;
            return makeErrorResponse("run", 0, "draining",
                                     "server is draining; no new runs");
        }
        job->id = nextJobId_++;
    }
    job->req = std::move(req);
    job->admitted = Clock::now();
    if (job->req.deadlineMs) {
        job->hasDeadline = true;
        job->deadline = job->admitted + std::chrono::milliseconds(
                                            job->req.deadlineMs);
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        active_[job->id] = job;
    }
    if (!queue_.tryEnqueue(job->req.tenant, job->req.weight, job)) {
        bool draining = queue_.closed();
        std::lock_guard<std::mutex> lk(mu_);
        active_.erase(job->id);
        if (draining) {
            ++counters_.rejectedDraining;
            return makeErrorResponse("run", job->id, "draining",
                                     "server is draining; no new runs");
        }
        ++counters_.rejectedQueueFull;
        return makeErrorResponse(
            "run", job->id, "queue-full",
            "admission queue is at capacity (" +
                std::to_string(cfg_.queueCapacity) + ")");
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++counters_.accepted;
    }
    return job->response.get_future().get();
}

std::string
Server::handleCancel(const std::string &tag)
{
    std::vector<std::shared_ptr<Job>> targets;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &[id, job] : active_)
            if (job->req.tag == tag)
                targets.push_back(job);
    }
    for (const auto &job : targets) {
        int none = 0;
        job->abortReason.compare_exchange_strong(none, 1);
        job->abort.store(true);
    }
    // Settle the ones that never started; running ones settle at the
    // engine's next loop boundary via the abort token.
    while (std::shared_ptr<Job> job = queue_.removeIf(
               [&](const Job &j) { return j.req.tag == tag; })) {
        finishJob(job, false,
                  makeErrorResponse("run", job->id, abortCode(*job),
                                    "job canceled while queued"));
    }
    return std::string("{\"ok\":true,\"op\":\"cancel\",\"canceled\":") +
           (targets.empty() ? "false" : "true") + "}";
}

std::string
Server::handleStats()
{
    return "{\"ok\":true,\"op\":\"stats\"," + metricsJson() + "}";
}

std::string
Server::handleDrain()
{
    drain();
    uint64_t done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        done = counters_.completed;
    }
    return "{\"ok\":true,\"op\":\"drain\",\"completed\":" +
           std::to_string(done) +
           ",\"bench\":" + json::quote(cfg_.benchPath) + "}";
}

int
Server::workerLoop()
{
    while (std::shared_ptr<Job> job = queue_.dequeue())
        execute(job);
    return 0;
}

std::string
Server::abortCode(const Job &job)
{
    switch (job.abortReason.load()) {
      case 2: return "deadline-exceeded";
      case 3: return "shutdown";
      default: return "canceled";
    }
}

void
Server::execute(const std::shared_ptr<Job> &job)
{
    Clock::time_point runStart = Clock::now();
    double queueMs = msBetween(job->admitted, runStart);
    std::string response;
    bool succeeded = false;
    if (job->abort.load()) {
        response = makeErrorResponse("run", job->id, abortCode(*job),
                                     "job aborted while queued");
    } else {
        try {
            ImagineSystem sys(job->req.config);
            sys.setAbortToken(&job->abort);
            apps::AppResult r = runWorkload(sys, job->req);
            // Serialize before reading the clock: run time always
            // includes toJson(), whatever order arguments evaluate in.
            std::string result = r.run.toJson();
            double runMs = msBetween(runStart, Clock::now());
            response = makeRunResponse(job->id, job->req.tenant,
                                       job->req.workload, r.validated,
                                       queueMs, runMs, result);
            succeeded = true;
        } catch (const ProtocolError &e) {
            response =
                makeErrorResponse("run", job->id, e.code, e.what());
        } catch (const SimError &e) {
            std::string code =
                e.kind() == SimErrorKind::Canceled
                    ? abortCode(*job)
                    : wireErrorCode(static_cast<int>(e.kind()));
            response =
                makeErrorResponse("run", job->id, code, e.what());
        } catch (const std::exception &e) {
            response =
                makeErrorResponse("run", job->id, "panic", e.what());
        }
    }
    finishJob(job, succeeded, response);
}

void
Server::finishJob(const std::shared_ptr<Job> &job, bool succeeded,
                  const std::string &response)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        active_.erase(job->id);
        ++counters_.completed;
        ++completedByTenant_[job->req.tenant];
        if (succeeded) {
            ++counters_.succeeded;
        } else {
            switch (job->abortReason.load()) {
              case 1:
              case 3:
                ++counters_.canceled;
                break;
              case 2:
                ++counters_.deadlineExpired;
                break;
              default:
                ++counters_.failed;
            }
        }
        double total = msBetween(job->admitted, Clock::now());
        constexpr size_t kReservoir = 1 << 16;
        if (latenciesMs_.size() < kReservoir) {
            latenciesMs_.push_back(total);
        } else {
            latenciesMs_[latencyCursor_] = total;
            latencyCursor_ = (latencyCursor_ + 1) % kReservoir;
        }
    }
    job->response.set_value(response);
}

void
Server::reaperLoop()
{
    while (!reaperStop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Clock::time_point now = Clock::now();
        bool anyExpired = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (const auto &[id, job] : active_) {
                if (!job->hasDeadline || now < job->deadline ||
                    job->abort.load())
                    continue;
                int none = 0;
                job->abortReason.compare_exchange_strong(none, 2);
                job->abort.store(true);
                anyExpired = true;
            }
        }
        if (!anyExpired)
            continue;
        // Expired jobs still queued settle right now; running ones
        // settle at the engine's next loop boundary.
        while (std::shared_ptr<Job> job = queue_.removeIf(
                   [](const Job &j) {
                       return j.abort.load() &&
                              j.abortReason.load() == 2;
                   })) {
            finishJob(job, false,
                      makeErrorResponse("run", job->id, "deadline-exceeded",
                                        "deadline expired while queued"));
        }
    }
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_ >= State::Draining;
}

void
Server::drain()
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (state_ == State::Draining) {
            stateCv_.wait(lk,
                          [&] { return state_ >= State::Drained; });
            return;
        }
        if (state_ >= State::Drained || state_ == State::Idle)
            return;
        state_ = State::Draining;
    }
    queue_.close();
    if (poolThread_.joinable())
        poolThread_.join();
    flushBench();
    std::lock_guard<std::mutex> lk(mu_);
    state_ = State::Drained;
    stateCv_.notify_all();
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == State::Stopped || state_ == State::Idle) {
            state_ = State::Stopped;
            return;
        }
    }
    // Hard-abort whatever is in flight, then reuse the drain path.
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &[id, job] : active_) {
            int none = 0;
            job->abortReason.compare_exchange_strong(none, 3);
            job->abort.store(true);
        }
    }
    batch_.cancelPending();
    drain();
    reaperStop_.store(true);
    if (reaperThread_.joinable())
        reaperThread_.join();
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        conns.swap(connThreads_);
    }
    for (std::thread &t : conns)
        t.join();
    if (!cfg_.unixPath.empty())
        ::unlink(cfg_.unixPath.c_str());
    std::lock_guard<std::mutex> lk(mu_);
    state_ = State::Stopped;
    stateCv_.notify_all();
}

std::string
Server::metricsJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    out += "\"queueDepth\":" + std::to_string(queue_.depth());
    out += ",\"draining\":";
    out += state_ >= State::Draining ? "true" : "false";
    out += ",\"latencyMs\":{\"count\":" +
           std::to_string(latenciesMs_.size()) +
           ",\"p50\":" + fmtMs(percentile(latenciesMs_, 50)) +
           ",\"p90\":" + fmtMs(percentile(latenciesMs_, 90)) +
           ",\"p99\":" + fmtMs(percentile(latenciesMs_, 99)) + "}";
    out += ",\"tenants\":{";
    bool first = true;
    for (const auto &[name, tc] : queue_.tenantCounters()) {
        if (!first)
            out += ",";
        first = false;
        uint64_t done = 0;
        auto it = completedByTenant_.find(name);
        if (it != completedByTenant_.end())
            done = it->second;
        out += json::quote(name) + ":{\"weight\":" + fmtMs(tc.weight) +
               ",\"admitted\":" + std::to_string(tc.admitted) +
               ",\"rejected\":" + std::to_string(tc.rejected) +
               ",\"queued\":" + std::to_string(tc.queued) +
               ",\"completed\":" + std::to_string(done) + "}";
    }
    out += "}";
    out += ",\"stats\":" + statsReg_.read().toJson();
    return out;
}

void
Server::flushBench() const
{
    if (cfg_.benchPath.empty())
        return;
    std::string body = "{" + metricsJson() + "}\n";
    std::FILE *f = std::fopen(cfg_.benchPath.c_str(), "w");
    if (!f)
        return;
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
}

} // namespace imagine::service
