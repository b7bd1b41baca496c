//! Path routing with `:param` / `{param}` captures.

use crate::reactor::RouteMetrics;
use crate::{Method, Request, Response, StatusCode};
use std::collections::HashMap;
use std::sync::Arc;

/// A handler: request + captured path params → response. Handlers are
/// reference-counted so one handler can serve several registered
/// patterns (versioned routes and their legacy aliases).
pub type Handler<S> = Arc<dyn Fn(&S, &Request, &HashMap<String, String>) -> Response + Send + Sync>;

/// A route's probe: the part of its handler that can answer without
/// rendering or I/O. It returns `None` to decline, and the request then
/// goes to the handler as usual. The reactor runs probes on its event
/// thread (see [`Router::probe`]).
pub(crate) type Probe<S> =
    Arc<dyn Fn(&S, &Request, &HashMap<String, String>) -> Option<Response> + Send + Sync>;

/// A method+pattern routing table over shared state `S`.
///
/// Patterns are `/`-separated; a segment spelled `:name` or `{name}`
/// captures the corresponding request segment under that name. The two
/// spellings are equivalent — `{name}` reads better in multi-parameter
/// REST paths like `/api/v1/cities/{id}/crowd`, `:name` stays for the
/// established tile routes.
///
/// # Examples
///
/// ```
/// use crowdweb_server::{Method, Request, Response, Router};
///
/// let mut router: Router<()> = Router::new();
/// router.get("/api/patterns/:user", |_, _, params| {
///     Response::json(format!("{{\"user\":\"{}\"}}", params["user"]))
/// });
/// let req = Request::read_from(
///     "GET /api/patterns/42 HTTP/1.1\r\n\r\n".as_bytes()).unwrap();
/// let resp = router.route(&(), &req);
/// assert_eq!(resp.status.code(), 200);
/// ```
pub struct Router<S> {
    routes: Vec<Route<S>>,
    /// Access metrics of requests no route matched (404/405).
    unmatched: Arc<RouteMetrics>,
    /// Access metrics of requests that never parsed (400).
    unparsed: Arc<RouteMetrics>,
}

struct Route<S> {
    method: Method,
    /// The route's access metrics, labelled by the canonical
    /// registration pattern (e.g. `/api/v1/patterns/:user`), bounded in
    /// cardinality where raw request paths are not. An alias
    /// registration shares its canonical route's metrics — both
    /// spellings fold into one series.
    metrics: Arc<RouteMetrics>,
    segments: Vec<Segment>,
    handler: Handler<S>,
    probe: Option<Probe<S>>,
}

#[derive(Debug, Clone, PartialEq)]
enum Segment {
    Literal(String),
    Param(String),
}

impl<S> Default for Router<S> {
    fn default() -> Self {
        Router::new()
    }
}

impl<S> Router<S> {
    /// Creates an empty router.
    pub fn new() -> Router<S> {
        Router {
            routes: Vec::new(),
            unmatched: route_metrics("unmatched"),
            unparsed: route_metrics("unparsed"),
        }
    }

    /// Registers a GET route.
    pub fn get<F>(&mut self, pattern: &str, handler: F) -> &mut Router<S>
    where
        F: Fn(&S, &Request, &HashMap<String, String>) -> Response + Send + Sync + 'static,
    {
        self.register(Method::Get, &[pattern], Arc::new(handler), None);
        self
    }

    /// Registers a GET route at its canonical `pattern` plus a legacy
    /// `alias` spelling. Both dispatch the *same* handler and report
    /// the canonical pattern as the metrics route label, so aliasing
    /// never doubles the label cardinality.
    pub fn get_aliased<F>(&mut self, pattern: &str, alias: &str, handler: F) -> &mut Router<S>
    where
        F: Fn(&S, &Request, &HashMap<String, String>) -> Response + Send + Sync + 'static,
    {
        self.register(Method::Get, &[pattern, alias], Arc::new(handler), None);
        self
    }

    /// Registers a `method` route under each of `patterns`: the first is
    /// canonical, the rest alias it as in [`Router::get_aliased`].
    pub(crate) fn add<F>(&mut self, method: Method, patterns: &[&str], handler: F) -> &mut Router<S>
    where
        F: Fn(&S, &Request, &HashMap<String, String>) -> Response + Send + Sync + 'static,
    {
        self.register(method, patterns, Arc::new(handler), None);
        self
    }

    /// Registers a GET route under each of `patterns` — the first is
    /// canonical, the rest alias it as in [`Router::get_aliased`] — with
    /// a probe beside the handler.
    pub(crate) fn get_probed<F, P>(&mut self, patterns: &[&str], handler: F, probe: P)
    where
        F: Fn(&S, &Request, &HashMap<String, String>) -> Response + Send + Sync + 'static,
        P: Fn(&S, &Request, &HashMap<String, String>) -> Option<Response> + Send + Sync + 'static,
    {
        self.register(
            Method::Get,
            patterns,
            Arc::new(handler),
            Some(Arc::new(probe)),
        );
    }

    /// Adds one route per pattern, all sharing the handler, the probe
    /// and the access metrics labelled by the first (canonical) pattern.
    fn register(
        &mut self,
        method: Method,
        patterns: &[&str],
        handler: Handler<S>,
        probe: Option<Probe<S>>,
    ) {
        let metrics = route_metrics(patterns[0]);
        for pattern in patterns {
            let segments = pattern
                .split('/')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    if let Some(name) = s.strip_prefix(':') {
                        Segment::Param(name.to_owned())
                    } else if let Some(name) = s
                        .strip_prefix('{')
                        .and_then(|rest| rest.strip_suffix('}'))
                        .filter(|name| !name.is_empty())
                    {
                        Segment::Param(name.to_owned())
                    } else {
                        Segment::Literal(s.to_owned())
                    }
                })
                .collect();
            self.routes.push(Route {
                method,
                metrics: Arc::clone(&metrics),
                segments,
                handler: Arc::clone(&handler),
                probe: probe.clone(),
            });
        }
    }

    /// Number of registered routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no routes are registered.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Dispatches a request: 404 for unknown paths, 405 when the path
    /// matches under a different method.
    pub fn route(&self, state: &S, request: &Request) -> Response {
        self.dispatch(state, request).0
    }

    /// [`Self::route`], also returning the matched route's canonical
    /// pattern (`None` on 404/405) — the bounded-cardinality label
    /// metrics key per-route series by. A legacy alias reports the
    /// canonical pattern it aliases, not its own spelling.
    pub fn dispatch(&self, state: &S, request: &Request) -> (Response, Option<&str>) {
        let (response, route) = self.dispatch_matched(state, request);
        (response, route.map(|route| route.metrics.label()))
    }

    /// [`Self::dispatch`], also returning the access metrics to record
    /// the request into: the matched route's, or the shared `unmatched`
    /// route's on 404/405.
    pub(crate) fn dispatch_metered(
        &self,
        state: &S,
        request: &Request,
    ) -> (Response, &RouteMetrics) {
        let (response, route) = self.dispatch_matched(state, request);
        let metrics = route.map_or(&self.unmatched, |route| &route.metrics);
        (response, metrics)
    }

    /// Runs the probe of the route `request` matches — the route
    /// [`Self::dispatch`] would pick. Returns the probe's response and
    /// the route's access metrics, or `None` when the route has no probe,
    /// the probe declines, or no route matches.
    pub(crate) fn probe(&self, state: &S, request: &Request) -> Option<(Response, &RouteMetrics)> {
        let (route, params) = self.find(request).ok()?;
        let response = route.probe.as_ref()?(state, request, &params)?;
        Some((response, &route.metrics))
    }

    /// The access metrics of requests that never parsed.
    pub(crate) fn unparsed(&self) -> &RouteMetrics {
        &self.unparsed
    }

    fn dispatch_matched(&self, state: &S, request: &Request) -> (Response, Option<&Route<S>>) {
        match self.find(request) {
            Ok((route, params)) => ((route.handler)(state, request, &params), Some(route)),
            Err(path_matched) => {
                let response = if path_matched {
                    Response::error(StatusCode::MethodNotAllowed, "method not allowed")
                } else {
                    Response::error(StatusCode::NotFound, "not found")
                };
                (response, None)
            }
        }
    }

    /// The first route matching `request`'s method and path, with its
    /// path captures; otherwise whether some route matched the path
    /// under another method (405, not 404).
    fn find(&self, request: &Request) -> Result<(&Route<S>, HashMap<String, String>), bool> {
        let parts: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let mut path_matched = false;
        for route in &self.routes {
            if let Some(params) = match_segments(&route.segments, &parts) {
                if route.method == request.method {
                    return Ok((route, params));
                }
                path_matched = true;
            }
        }
        Err(path_matched)
    }
}

fn route_metrics(label: &str) -> Arc<RouteMetrics> {
    Arc::new(RouteMetrics::new(label))
}

fn match_segments(pattern: &[Segment], parts: &[&str]) -> Option<HashMap<String, String>> {
    if pattern.len() != parts.len() {
        return None;
    }
    let mut params = HashMap::new();
    for (seg, part) in pattern.iter().zip(parts) {
        match seg {
            Segment::Literal(lit) => {
                if lit != part {
                    return None;
                }
            }
            Segment::Param(name) => {
                params.insert(name.clone(), (*part).to_owned());
            }
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str) -> Request {
        Request::read_from(format!("{method} {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap()
    }

    fn router() -> Router<i32> {
        let mut r = Router::new();
        r.get("/", |_, _, _| Response::html("home".into()));
        r.get("/api/users", |s, _, _| Response::json(format!("{s}")));
        r.get("/api/patterns/:user", |_, _, p| {
            Response::json(p["user"].clone())
        });
        r.add(Method::Post, &["/api/upload"], |_, rq, _| {
            Response::json(format!("{}", rq.body.len()))
        });
        r
    }

    #[test]
    fn exact_and_param_matching() {
        let r = router();
        assert_eq!(r.len(), 4);
        let resp = r.route(&7, &req("GET", "/api/users"));
        assert_eq!(String::from_utf8(resp.into_body_bytes()).unwrap(), "7");
        let resp = r.route(&7, &req("GET", "/api/patterns/42"));
        assert_eq!(String::from_utf8(resp.into_body_bytes()).unwrap(), "42");
    }

    #[test]
    fn root_path_matches() {
        let r = router();
        let resp = r.route(&0, &req("GET", "/"));
        assert_eq!(resp.status, StatusCode::Ok);
    }

    #[test]
    fn unknown_path_is_404() {
        let r = router();
        assert_eq!(
            r.route(&0, &req("GET", "/nope")).status,
            StatusCode::NotFound
        );
        // Wrong arity.
        assert_eq!(
            r.route(&0, &req("GET", "/api/patterns/1/2")).status,
            StatusCode::NotFound
        );
    }

    #[test]
    fn wrong_method_is_405() {
        let r = router();
        assert_eq!(
            r.route(&0, &req("POST", "/api/users")).status,
            StatusCode::MethodNotAllowed
        );
        assert_eq!(
            r.route(&0, &req("GET", "/api/upload")).status,
            StatusCode::MethodNotAllowed
        );
    }

    #[test]
    fn dispatch_reports_the_matched_pattern() {
        let r = router();
        let (resp, pattern) = r.dispatch(&7, &req("GET", "/api/patterns/42"));
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(pattern, Some("/api/patterns/:user"));
        let (_, pattern) = r.dispatch(&0, &req("GET", "/nope"));
        assert_eq!(pattern, None, "404 has no route label");
        let (_, pattern) = r.dispatch(&0, &req("POST", "/api/users"));
        assert_eq!(pattern, None, "405 has no route label");
    }

    #[test]
    fn aliased_routes_share_handler_and_canonical_label() {
        let mut r: Router<i32> = Router::new();
        r.get_aliased(
            "/api/v1/patterns/:user",
            "/api/patterns/:user",
            |s, _, p| Response::json(format!("{s}:{}", p["user"])),
        );
        r.add(
            Method::Post,
            &["/api/v1/upload", "/api/upload"],
            |_, rq, _| Response::json(format!("{}", rq.body.len())),
        );
        assert_eq!(r.len(), 4, "each alias pair registers two routes");
        // Both spellings dispatch the same handler...
        let (v1, v1_label) = r.dispatch(&7, &req("GET", "/api/v1/patterns/42"));
        let (legacy, legacy_label) = r.dispatch(&7, &req("GET", "/api/patterns/42"));
        assert_eq!(v1.into_body_bytes(), legacy.into_body_bytes());
        // ...and both report the canonical pattern as the metrics
        // label, so the alias adds zero label cardinality.
        assert_eq!(v1_label, Some("/api/v1/patterns/:user"));
        assert_eq!(legacy_label, Some("/api/v1/patterns/:user"));
        let (_, label) = r.dispatch(&0, &req("POST", "/api/upload"));
        assert_eq!(label, Some("/api/v1/upload"));
    }

    #[test]
    fn brace_params_match_and_capture() {
        let mut r: Router<i32> = Router::new();
        r.get("/api/v1/cities/{city}/crowd", |_, _, p| {
            Response::json(p["city"].clone())
        });
        r.get("/api/v1/cities/{city}/tiles/{z}", |_, _, p| {
            Response::json(format!("{}@{}", p["city"], p["z"]))
        });
        let resp = r.route(&0, &req("GET", "/api/v1/cities/nyc/crowd"));
        assert_eq!(String::from_utf8(resp.into_body_bytes()).unwrap(), "nyc");
        let resp = r.route(&0, &req("GET", "/api/v1/cities/tokyo/tiles/12"));
        assert_eq!(
            String::from_utf8(resp.into_body_bytes()).unwrap(),
            "tokyo@12"
        );
        // `{}` and `{city` are not captures; they stay literal segments.
        let mut r: Router<i32> = Router::new();
        r.get("/odd/{}", |_, _, p| Response::json(format!("{}", p.len())));
        assert_eq!(
            r.route(&0, &req("GET", "/odd/x")).status,
            StatusCode::NotFound
        );
        assert_eq!(r.route(&0, &req("GET", "/odd/{}")).status, StatusCode::Ok);
    }

    #[test]
    fn param_routes_report_bounded_cardinality_labels() {
        // The metrics route label must be the registered *pattern*, not
        // the request path: a thousand distinct city ids must fold into
        // one label, or the per-route metric family explodes.
        let mut r: Router<i32> = Router::new();
        r.get("/api/v1/cities/{city}/crowd", |_, _, _| {
            Response::json("{}".into())
        });
        let mut labels = std::collections::HashSet::new();
        for i in 0..1000 {
            let (resp, label) = r.dispatch(&0, &req("GET", &format!("/api/v1/cities/c{i}/crowd")));
            assert_eq!(resp.status, StatusCode::Ok);
            labels.insert(label.expect("matched route has a label").to_owned());
        }
        assert_eq!(
            labels.into_iter().collect::<Vec<_>>(),
            vec!["/api/v1/cities/{city}/crowd".to_owned()],
            "1000 distinct city values must produce exactly one route label"
        );
    }

    #[test]
    fn trailing_slash_is_equivalent() {
        let r = router();
        assert_eq!(
            r.route(&0, &req("GET", "/api/users/")).status,
            StatusCode::Ok
        );
    }
}
