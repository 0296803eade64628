(* flames_serve: the JSON module, the HTTP parser over pipes, admission
   control with an injected clock, and a loopback end-to-end exercise of
   the whole service — diagnose, metrics scrape, protocol errors,
   quotas, graceful drain. *)

module Json = Flames_serve.Json
module Http = Flames_serve.Http
module Admission = Flames_serve.Admission
module Server = Flames_serve.Server
module Router = Flames_serve.Router
module Version = Flames_serve.Version
module Events = Flames_obs.Events

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {1 Json} *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("nil", Json.Null);
        ("yes", Json.Bool true);
        ("n", Json.Num 42.);
        ("x", Json.Num 0.125);
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("a", Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Bool false ]);
        ("o", Json.Obj [ ("k", Json.Str "v") ]);
      ]
  in
  let text = Json.to_string v in
  check_bool "roundtrip" true (Json.parse text = v);
  check_string "integral numbers print bare" "42" (Json.to_string (Json.Num 42.));
  check_string "non-finite prints null" "null" (Json.to_string (Json.Num Float.nan))

let test_json_errors () =
  let bad s =
    match Json.parse_result s with
    | Ok _ -> Alcotest.failf "parsed %S" s
    | Error m -> check_bool "error mentions a position" true (contains m "at ")
  in
  bad "{";
  bad "[1,]";
  bad "tru";
  bad "\"unterminated";
  bad "1 2";
  bad ""

let test_json_accessors () =
  let j = Json.parse {|{"a": 1.5, "s": "x", "l": [1]}|} in
  check_bool "mem hit" true (Json.mem "a" j = Some (Json.Num 1.5));
  check_bool "mem miss" true (Json.mem "zz" j = None);
  check_string "str" "x" (Json.str (Json.Str "x"));
  check_bool "num" true (Json.num (Json.Num 1.5) = 1.5);
  check_bool "str_opt on num" true (Json.str_opt (Json.Num 1.) = None);
  check_bool "num_opt" true (Json.num_opt (Json.Num 2.) = Some 2.);
  check_bool "list_opt" true (Json.list_opt (Json.Arr []) = Some []);
  (match Json.str (Json.Num 1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "str on a number must raise")

(* {1 Http over a pipe} *)

let with_bytes bytes f =
  let r, w = Unix.pipe ~cloexec:true () in
  let n = String.length bytes in
  let written = Unix.write_substring w bytes 0 n in
  check_int "test bytes fit the pipe buffer" n written;
  Unix.close w;
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> f (Http.conn r))

let test_http_requests () =
  (* two pipelined keep-alive requests, then a clean EOF *)
  let bytes =
    "POST /diagnose?x=1 HTTP/1.1\r\nHost: t\r\nX-Flames-Client: c7\r\n\
     Content-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.0\r\n\r\n"
  in
  with_bytes bytes (fun conn ->
      (match Http.read_request conn with
      | Ok r ->
        check_string "meth" "POST" r.Http.meth;
        check_string "path" "/diagnose" r.Http.path;
        check_string "query" "x=1" r.Http.query;
        check_string "body" "body" r.Http.body;
        check_bool "header lookup is case-insensitive" true
          (Http.header r.Http.headers "x-flames-CLIENT" = Some "c7");
        check_bool "1.1 keeps alive" true (Http.keep_alive r)
      | Error _ -> Alcotest.fail "first request must parse");
      (match Http.read_request conn with
      | Ok r ->
        check_string "second meth" "GET" r.Http.meth;
        check_string "second body" "" r.Http.body;
        check_bool "1.0 closes by default" false (Http.keep_alive r)
      | Error _ -> Alcotest.fail "second request must parse");
      match Http.read_request conn with
      | Error Http.Eof -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected a clean EOF")

let test_http_malformed () =
  with_bytes "NOT-AN-HTTP-REQUEST\r\n\r\n" (fun conn ->
      match Http.read_request conn with
      | Error (Http.Malformed _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Malformed");
  with_bytes "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n" (fun conn ->
      match Http.read_request conn with
      | Error (Http.Malformed _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Malformed header")

let test_http_too_large () =
  (* rejected from Content-Length alone: the body bytes are not there *)
  with_bytes "POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n" (fun conn ->
      match Http.read_request ~max_body:64 conn with
      | Error (Http.Too_large n) -> check_int "declared size" 999 n
      | Ok _ | Error _ -> Alcotest.fail "expected Too_large")

let test_http_response_roundtrip () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      Http.write_response w
        ~headers:[ ("Retry-After", "1") ]
        ~status:429 {|{"error":"shed"}|};
      Unix.close w;
      match Http.read_response (Http.conn r) with
      | Ok resp ->
        check_int "status" 429 resp.Http.status;
        check_string "reason" "Too Many Requests" resp.Http.reason;
        check_bool "header" true
          (Http.header resp.Http.resp_headers "retry-after" = Some "1");
        check_string "body" {|{"error":"shed"}|} resp.Http.resp_body
      | Error _ -> Alcotest.fail "response must parse")

(* Seeded byte mutations of valid messages, each decoded from a temp
   file (a read at its end returns 0, so a decoder waiting for more bytes
   sees end of stream instead of blocking): every message pulled off the
   mutated bytes is [Ok] or a typed [Http.error], never an exception, and
   the read loop ends. *)
let valid_requests =
  [
    "POST /diagnose?x=1 HTTP/1.1\r\nHost: t\r\nContent-Type: \
     application/json\r\nContent-Length: 23\r\n\r\n{\"circuit\": \"divider\"}";
    "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /metrics \
     HTTP/1.1\r\n\r\n";
    "POST /session/s1/measure HTTP/1.1\r\nX-Flames-Trace-Id: abc\r\n\
     Content-Length: 12\r\n\r\n{\"node\":\"m\"}";
  ]

let valid_responses =
  [
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: \
     11\r\n\r\n{\"ok\":true}";
    "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: \
     0\r\n\r\nHTTP/1.0 404 Not Found\r\n\r\n";
  ]

let mutate rng s =
  let n = String.length s in
  let at () = Random.State.int rng (Int.max 1 n) in
  let byte () = Char.chr (Random.State.int rng 256) in
  match Random.State.int rng 4 with
  | 0 when n > 0 ->
    let b = Bytes.of_string s and i = at () in
    Bytes.set b i
      (Char.chr (Char.code s.[i] lxor (1 + Random.State.int rng 255)));
    Bytes.to_string b
  | 1 ->
    let i = Random.State.int rng (n + 1) in
    String.sub s 0 i ^ String.make 1 (byte ()) ^ String.sub s i (n - i)
  | 2 when n > 0 ->
    let i = at () in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | _ -> String.sub s 0 (Random.State.int rng (n + 1))

let decode_file ~read bytes =
  let path = Filename.temp_file "flames_http" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let c = Http.conn fd in
  (* each [Ok] consumes at least one byte, so [k] bounds the loop *)
  let rec loop k =
    if k > String.length bytes then Some "no progress"
    else
      match read c with
      | Ok () -> loop (k + 1)
      | Error (_ : Http.error) -> None
      | exception e -> Some (Printexc.to_string e)
  in
  loop 0

let test_http_mutations () =
  let rng = Random.State.make [| 0x5eed |] in
  let ignore_ok r = Result.map ignore r in
  let readers =
    [
      ("request", valid_requests, fun ~max_body c ->
          ignore_ok (Http.read_request ~max_body c));
      ("response", valid_responses, fun ~max_body c ->
          ignore_ok (Http.read_response ~max_body c));
    ]
  in
  for case = 1 to 500 do
    let kind, valid, read = List.nth readers (case mod 2) in
    let base = List.nth valid (Random.State.int rng (List.length valid)) in
    let bytes = ref base in
    for _ = 1 to 1 + Random.State.int rng 3 do
      bytes := mutate rng !bytes
    done;
    (* a small limit on some cases drives the Too_large paths *)
    let max_body = if case mod 5 = 0 then 8 else 1 lsl 20 in
    match decode_file ~read:(read ~max_body) !bytes with
    | None -> ()
    | Some fault -> Alcotest.failf "%s case %d: %s on %S" kind case fault !bytes
  done

(* {1 Admission} *)

let test_admission_saturation () =
  let a = Admission.create ~max_inflight:2 () in
  check_bool "first admitted" true (Admission.admit a ~client:"a" = Admission.Admitted);
  check_bool "second admitted" true (Admission.admit a ~client:"b" = Admission.Admitted);
  (match Admission.admit a ~client:"c" with
  | Admission.Shed { reason = Admission.Saturated; retry_after } ->
    check_bool "retry_after positive" true (retry_after > 0.)
  | Admission.Admitted | Admission.Shed _ -> Alcotest.fail "expected Saturated");
  check_int "in_flight" 2 (Admission.in_flight a);
  Admission.release a;
  check_bool "slot freed" true (Admission.admit a ~client:"c" = Admission.Admitted)

let test_admission_quota () =
  let now = ref 0. in
  let a =
    Admission.create ~now:(fun () -> !now) ~max_inflight:100 ~quota_rate:1.
      ~quota_burst:2. ()
  in
  (* burst of 2, then dry; other clients have their own buckets *)
  check_bool "burst 1" true (Admission.admit a ~client:"x" = Admission.Admitted);
  check_bool "burst 2" true (Admission.admit a ~client:"x" = Admission.Admitted);
  (match Admission.admit a ~client:"x" with
  | Admission.Shed { reason = Admission.Throttled; retry_after } ->
    check_bool "refill eta about 1s" true
      (retry_after > 0.9 && retry_after <= 1.0)
  | Admission.Admitted | Admission.Shed _ -> Alcotest.fail "expected Throttled");
  check_bool "other client unaffected" true
    (Admission.admit a ~client:"y" = Admission.Admitted);
  (* one token back after one second on the fake clock *)
  now := 1.0;
  check_bool "refilled" true (Admission.admit a ~client:"x" = Admission.Admitted);
  check_bool "only one token refilled" true
    (match Admission.admit a ~client:"x" with
    | Admission.Shed { reason = Admission.Throttled; _ } -> true
    | Admission.Admitted | Admission.Shed _ -> false)

let test_retry_after_header () =
  check_bool "rounded up" true
    (Admission.retry_after_header 3.2 = ("Retry-After", "4"));
  check_bool "at least one second" true
    (Admission.retry_after_header 0.05 = ("Retry-After", "1"))

(* {1 Loopback end-to-end} *)

let request ~port ?(meth = "GET") ?(headers = []) ?content_type ?(body = "")
    path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Http.write_request fd ~headers ?content_type ~meth ~path body;
      match Http.read_response (Http.conn fd) with
      | Ok r -> r
      | Error _ -> Alcotest.fail "no parsable response")

let with_server ?config f =
  let server = Server.start ?config () in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let body_json (r : Http.response) =
  match Json.parse_result r.Http.resp_body with
  | Ok j -> j
  | Error m -> Alcotest.failf "response body is not JSON (%s): %s" m r.Http.resp_body

let one_line s =
  String.length s > 0
  && s.[String.length s - 1] = '\n'
  && not (String.contains (String.sub s 0 (String.length s - 1)) '\n')

let ephemeral = { Server.default_config with port = 0; workers = 1 }

let test_e2e_probes () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      let health = request ~port "/healthz" in
      check_int "healthz" 200 health.Http.status;
      check_string "healthz body" "ok\n" health.Http.resp_body;
      let version = request ~port "/version" in
      check_int "version status" 200 version.Http.status;
      check_bool "version body" true
        (contains version.Http.resp_body Version.current);
      let ready = request ~port "/readyz" in
      check_int "readyz" 200 ready.Http.status;
      let j = body_json ready in
      check_bool "ready" true (Json.mem "ready" j = Some (Json.Bool true));
      check_bool "pool introspection exposed" true
        (Json.mem "queue_depth" j <> None && Json.mem "in_flight" j <> None);
      let missing = request ~port "/no-such" in
      check_int "404" 404 missing.Http.status;
      let wrong = request ~port ~meth:"POST" "/healthz" in
      check_int "405" 405 wrong.Http.status;
      check_bool "Allow header" true
        (Http.header wrong.Http.resp_headers "allow" = Some "GET"))

(* The wide-event lines a sink receives while [f] runs, parsed.  Sink
   calls run under the events' sink mutex, which [set_sink None] takes
   too, so every line is in [lines] once it returns. *)
let with_event_lines f =
  let lines = ref [] in
  Events.set_sink (Some (fun l -> lines := l :: !lines));
  Fun.protect ~finally:(fun () -> Events.set_sink None) f;
  List.rev_map Json.parse !lines

(* Every request leaves one [http.request] wide event: identity, route,
   status and latency always; a successful /diagnose also carries its
   per-stage [t_<stage>] timings.  Seqs ascend in sink order. *)
let check_request_events events =
  let seqs =
    List.filter_map (fun e -> Option.bind (Json.mem "seq" e) Json.num_opt) events
  in
  check_int "every event has a seq" (List.length events) (List.length seqs);
  check_bool "seqs ascending" true (seqs = List.sort_uniq compare seqs);
  let requests =
    List.filter
      (fun e -> Json.mem "event" e = Some (Json.Str "http.request"))
      events
  in
  check_bool "http.request events recorded" true (requests <> []);
  List.iter
    (fun e ->
      List.iter
        (fun key ->
          check_bool (Printf.sprintf "event has %S" key) true
            (Json.mem key e <> None))
        [ "ts"; "trace"; "route"; "status"; "elapsed_ms" ])
    requests;
  let diagnosed =
    List.filter
      (fun e ->
        Json.mem "route" e = Some (Json.Str "/diagnose")
        && Json.mem "status" e = Some (Json.Num 200.))
      requests
  in
  check_bool "200 /diagnose events recorded" true (diagnosed <> []);
  List.iter
    (fun e ->
      let timed =
        match e with
        | Json.Obj fields ->
          List.exists (fun (k, _) -> String.starts_with ~prefix:"t_" k) fields
        | _ -> false
      in
      check_bool "200 /diagnose event carries t_<stage> timings" true timed)
    diagnosed

let test_e2e_diagnose () =
  check_request_events @@ with_event_lines @@ fun () ->
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      let resp =
        request ~port ~meth:"POST" "/diagnose"
          ~body:{|{"circuit": "divider", "fault": "r2.R=short"}|}
      in
      check_int "diagnose status" 200 resp.Http.status;
      let j = body_json resp in
      check_bool "not healthy" true
        (Json.mem "healthy" j = Some (Json.Bool false));
      check_bool "r2 suspected" true (contains resp.Http.resp_body "r2");
      check_bool "latency reported" true
        (match Option.bind (Json.mem "elapsed_ms" j) Json.num_opt with
        | Some ms -> ms >= 0.
        | None -> false);
      (* same scenario as a plain-text batch line *)
      let text =
        request ~port ~meth:"POST" "/diagnose" ~content_type:"text/plain"
          ~body:"divider r2.R=short"
      in
      check_int "text-line status" 200 text.Http.status;
      check_bool "text-line diagnoses r2" true (contains text.Http.resp_body "r2");
      (* `curl -d` sends a form content-type: a '{'-opening body must
         still be read as JSON, so the README example works verbatim *)
      let curlish =
        request ~port ~meth:"POST" "/diagnose"
          ~content_type:"application/x-www-form-urlencoded"
          ~body:{|{"circuit": "divider", "fault": "r2.R=short"}|}
      in
      check_int "form-encoded JSON status" 200 curlish.Http.status;
      check_bool "form-encoded JSON diagnoses r2" true
        (contains curlish.Http.resp_body "r2");
      (* client-supplied observations bypass the simulator: a divider
         with mid at 2 V instead of the nominal 5 V is conflicted *)
      let netlist =
        ".circuit t\n.ground gnd\nV vs in gnd 10\nR r1 in mid 10k\nR r2 mid \
         gnd 10k\n"
      in
      let obs_body =
        Json.to_string
          (Json.Obj
             [
               ("netlist", Json.Str netlist);
               ( "observations",
                 Json.Arr
                   [
                     Json.Obj
                       [
                         ("node", Json.Str "mid");
                         ("value", Json.Num 2.);
                         ("spread", Json.Num 0.05);
                       ];
                   ] );
             ])
      in
      let obs = request ~port ~meth:"POST" "/diagnose" ~body:obs_body in
      check_int "netlist+observations status" 200 obs.Http.status;
      check_bool "observation conflicts" true
        (Json.mem "healthy" (body_json obs) = Some (Json.Bool false));
      (* the scrape sees the requests that just ran *)
      let metrics = request ~port "/metrics" in
      check_int "metrics status" 200 metrics.Http.status;
      check_bool "serve counters exported" true
        (contains metrics.Http.resp_body "flames_serve_requests_total"))

let test_e2e_input_errors () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      let expect_400 name body mentions =
        let r = request ~port ~meth:"POST" "/diagnose" ~body in
        check_int (name ^ " status") 400 r.Http.status;
        check_bool (name ^ " one-line error") true (one_line r.Http.resp_body);
        check_bool
          (Printf.sprintf "%s mentions %S (got %S)" name mentions
             r.Http.resp_body)
          true
          (contains r.Http.resp_body mentions)
      in
      expect_400 "bad json" {|{"circuit": }|} "error";
      expect_400 "unknown circuit" {|{"circuit": "nope"}|} "unknown circuit";
      expect_400 "bad fault" {|{"circuit": "divider", "fault": "bogus"}|}
        "bad fault spec";
      expect_400 "unknown component"
        {|{"circuit": "divider", "fault": "r9.R=short"}|} "no such component";
      expect_400 "unknown probe" {|{"circuit": "divider", "probes": ["zz"]}|}
        "unknown probe";
      expect_400 "neither circuit nor netlist" {|{}|} "needs";
      expect_400 "bad netlist" {|{"netlist": "R broken\n"}|} "netlist")

let test_e2e_limits () =
  let config =
    {
      ephemeral with
      max_body = 128;
      quota_rate = 0.2;
      quota_burst = 1.;
    }
  in
  with_server ~config (fun server ->
      let port = Server.port server in
      let big = String.make 512 'x' in
      let r = request ~port ~meth:"POST" "/diagnose" ~body:big in
      check_int "oversized body" 413 r.Http.status;
      check_bool "413 is one line" true (one_line r.Http.resp_body);
      (* burst of 1: the second request inside the refill window is
         throttled with a Retry-After *)
      let ok =
        request ~port ~meth:"POST" "/diagnose" ~body:{|{"circuit":"divider"}|}
      in
      check_int "first request admitted" 200 ok.Http.status;
      let shed =
        request ~port ~meth:"POST" "/diagnose" ~body:{|{"circuit":"divider"}|}
      in
      check_int "second request throttled" 429 shed.Http.status;
      check_bool "Retry-After present" true
        (Http.header shed.Http.resp_headers "retry-after" <> None))

(* {1 Session registry (injected clock)} *)

let test_sessions_ttl () =
  let now = ref 0. in
  let reg = Admission.Sessions.create ~now:(fun () -> !now) ~cap:4 ~ttl:10. () in
  let id =
    match Admission.Sessions.put reg "payload" with
    | Ok id -> id
    | Error `Capacity -> Alcotest.fail "empty registry refused a session"
  in
  check_bool "live entry found" true
    (Admission.Sessions.with_session reg id (fun v -> v) = Some "payload");
  (* each access refreshes the deadline *)
  now := 8.;
  check_bool "touched before expiry" true
    (Admission.Sessions.with_session reg id (fun v -> v) = Some "payload");
  now := 16.;
  check_bool "refresh kept it alive" true
    (Admission.Sessions.with_session reg id (fun v -> v) = Some "payload");
  (* idle past the TTL: lazily expired on the next access *)
  now := 27.;
  check_bool "expired after idle TTL" true
    (Admission.Sessions.with_session reg id (fun v -> v) = None);
  check_int "expired entry dropped" 0 (Admission.Sessions.count reg);
  check_bool "remove on gone id" false (Admission.Sessions.remove reg id)

let test_sessions_cap () =
  let now = ref 0. in
  let reg = Admission.Sessions.create ~now:(fun () -> !now) ~cap:2 ~ttl:5. () in
  let put () = Admission.Sessions.put reg () in
  check_bool "first fits" true (Result.is_ok (put ()));
  let second = match put () with Ok id -> id | Error _ -> Alcotest.fail "cap 2" in
  check_bool "at capacity" true (put () = Error `Capacity);
  (* closing one frees a slot... *)
  check_bool "close frees" true (Admission.Sessions.remove reg second);
  check_bool "slot reusable" true (Result.is_ok (put ()));
  (* ...and so does expiry: put sweeps the dead before deciding *)
  now := 6.;
  check_int "sweep drops both" 2 (Admission.Sessions.sweep reg);
  check_bool "capacity back after expiry" true (Result.is_ok (put ()))

(* {1 Session e2e over loopback} *)

let post ~port ?headers path body =
  request ~port ~meth:"POST" ?headers ~body path

let json_num j key =
  match Option.bind (Json.mem key j) Json.num_opt with
  | Some n -> n
  | None -> Alcotest.failf "response lacks numeric %S" key

let test_e2e_session_loop () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      (* open a session on the divider with a shorted lower leg *)
      let created = post ~port "/session/create" {|{"circuit": "divider"}|} in
      check_int "create status" 200 created.Http.status;
      let sid =
        match
          Option.bind (Json.mem "session" (body_json created)) Json.str_opt
        with
        | Some id -> id
        | None -> Alcotest.fail "create reply lacks a session id"
      in
      let step path body = post ~port (Printf.sprintf "/session/%s/%s" sid path) body in
      (* healthy so far: no measurements *)
      let d0 = step "diagnoses" "{}" in
      check_int "empty diagnoses status" 200 d0.Http.status;
      check_bool "healthy before measurements" true
        (Json.mem "healthy" (body_json d0) = Some (Json.Bool true));
      (* the shorted divider pulls mid to ~0 V *)
      let m1 = step "measure" {|{"node": "mid", "value": 0.02, "spread": 0.05}|} in
      check_int "measure status" 200 m1.Http.status;
      let m1_id = json_num (body_json m1) "id" in
      let m2 = step "measure" {|{"node": "in", "value": 10.0, "spread": 0.1}|} in
      check_int "second measure status" 200 m2.Http.status;
      let d1 = step "diagnoses" "{}" in
      check_int "diagnoses status" 200 d1.Http.status;
      check_bool "symptomatic" true
        (Json.mem "healthy" (body_json d1) = Some (Json.Bool false));
      check_bool "r2 among suspects" true (contains d1.Http.resp_body "r2");
      (* the recommendation must not repeat a measured point *)
      let next = step "next" "{}" in
      check_int "next status" 200 next.Http.status;
      check_bool "next does not re-probe mid" false
        (contains next.Http.resp_body "V(mid)");
      (* retract the symptom: back to healthy *)
      let retract =
        step "retract" (Printf.sprintf {|{"id": %d}|} (int_of_float m1_id))
      in
      check_int "retract status" 200 retract.Http.status;
      let d2 = step "diagnoses" "{}" in
      check_bool "healthy after retraction" true
        (Json.mem "healthy" (body_json d2) = Some (Json.Bool true));
      (* retracting it again is a 404 on the measurement *)
      let gone =
        step "retract" (Printf.sprintf {|{"id": %d}|} (int_of_float m1_id))
      in
      check_int "double retract" 404 gone.Http.status;
      (* close, then every step 404s *)
      check_int "close status" 200 (step "close" "{}").Http.status;
      check_int "step after close" 404 (step "diagnoses" "{}").Http.status;
      (* unknown ids and unknown verbs 404 *)
      check_int "unknown session" 404
        (post ~port "/session/zz/diagnoses" "{}").Http.status;
      check_int "unknown verb" 404
        (post ~port (Printf.sprintf "/session/%s/frob" sid) "{}").Http.status;
      (* GET on a session route is a 405 *)
      check_int "session requires POST" 405
        (request ~port "/session/create").Http.status)

let test_e2e_session_cap () =
  let config = { ephemeral with session_cap = 2 } in
  with_server ~config (fun server ->
      let port = Server.port server in
      let create () = post ~port "/session/create" {|{"circuit": "divider"}|} in
      check_int "first session" 200 (create ()).Http.status;
      check_int "second session" 200 (create ()).Http.status;
      let shed = create () in
      check_int "cap sheds with 429" 429 shed.Http.status;
      check_bool "Retry-After present" true
        (Http.header shed.Http.resp_headers "retry-after" <> None);
      check_bool "error is one line" true (one_line shed.Http.resp_body);
      (* the trace id is echoed even on a shed *)
      let traced_shed =
        post ~port
          ~headers:[ ("X-Flames-Trace-Id", "shed-trace-1") ]
          "/session/create" {|{"circuit": "divider"}|}
      in
      check_int "still shedding" 429 traced_shed.Http.status;
      check_bool "429 echoes the trace id" true
        (Http.header traced_shed.Http.resp_headers "x-flames-trace-id"
        = Some "shed-trace-1"))

let test_e2e_session_errors () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      let bad_create = post ~port "/session/create" {|{"circuit": "nope"}|} in
      check_int "unknown circuit" 400 bad_create.Http.status;
      let created = post ~port "/session/create" {|{"circuit": "divider"}|} in
      let sid =
        match
          Option.bind (Json.mem "session" (body_json created)) Json.str_opt
        with
        | Some id -> id
        | None -> Alcotest.fail "no session id"
      in
      let step path body = post ~port (Printf.sprintf "/session/%s/%s" sid path) body in
      check_int "unknown node" 400
        (step "measure" {|{"node": "zz", "value": 1}|}).Http.status;
      check_int "no node field" 400
        (step "measure" {|{"value": 1}|}).Http.status;
      check_int "retract without id" 400 (step "retract" "{}").Http.status;
      check_int "refine unknown measurement" 404
        (step "refine" {|{"id": 9, "value": 1}|}).Http.status)

(* {1 Readiness gate (router level)} *)

(* A deps record whose ready hook says the journal replay is still
   running: readiness and every session route must refuse with 503 +
   Retry-After while liveness stays green. *)
let test_router_recovering () =
  let pool = Flames_engine.Pool.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Flames_engine.Pool.shutdown pool)
  @@ fun () ->
  let deps =
    {
      Router.pool;
      cache = Flames_engine.Cache.create ();
      admission = Admission.create ();
      sessions = Admission.Sessions.create ();
      store = ref None;
      ready = (fun () -> false);
      draining = (fun () -> false);
      default_wall = 2.;
      max_wall = 10.;
    }
  in
  let req ?(meth = "GET") ?(body = "") path =
    Router.handle deps
      {
        Http.meth;
        path;
        query = "";
        version = "HTTP/1.1";
        headers = [];
        body;
      }
  in
  let expect_503 name (reply : Router.reply) =
    check_int (name ^ " answers 503") 503 reply.Router.status;
    check_bool (name ^ " has Retry-After") true
      (List.mem_assoc "Retry-After" reply.Router.headers);
    check_bool (name ^ " says recovering") true
      (contains reply.Router.body "recovering")
  in
  expect_503 "readyz" (req "/readyz");
  expect_503 "create" (req ~meth:"POST" ~body:{|{"circuit":"divider"}|} "/session/create");
  expect_503 "step" (req ~meth:"POST" ~body:"{}" "/session/s1/diagnoses");
  expect_503 "diagnose" (req ~meth:"POST" ~body:{|{"circuit":"divider"}|} "/diagnose");
  check_int "healthz stays live" 200 (req "/healthz").Router.status;
  check_int "version stays live" 200 (req "/version").Router.status;
  check_int "metrics stay scrapeable" 200 (req "/metrics").Router.status

(* {1 Sweep on lookup (injected clock)} *)

let test_sessions_sweep_on_lookup () =
  let module Metrics = Flames_obs.Metrics in
  let expired0 =
    Metrics.counter_value Flames_serve.Telemetry.sessions_expired_total
  in
  let now = ref 0. in
  let reg = Admission.Sessions.create ~now:(fun () -> !now) ~cap:8 ~ttl:10. () in
  let a =
    match Admission.Sessions.put reg "a" with
    | Ok id -> id
    | Error `Capacity -> Alcotest.fail "put a"
  in
  let _b =
    match Admission.Sessions.put reg "b" with
    | Ok id -> id
    | Error `Capacity -> Alcotest.fail "put b"
  in
  check_int "both live" 2 (Admission.Sessions.count reg);
  now := 25.;
  (* one lookup expires *every* idle entry, not only the touched one:
     before the sweep-on-lookup fix, b would linger holding capacity
     until a put or an explicit sweep *)
  check_bool "a expired" true
    (Admission.Sessions.with_session reg a (fun v -> v) = None);
  check_int "b swept by a's lookup" 0 (Admission.Sessions.count reg);
  let expired1 =
    Metrics.counter_value Flames_serve.Telemetry.sessions_expired_total
  in
  check_int "both expiries counted" 2 (expired1 - expired0)

(* A lookup can never resurrect an expired entry even when the gated
   full sweep does not run: the touched entry's own deadline is checked
   every time, while idle siblings wait (bounded) for the next due
   sweep — lookups stay O(1) amortised instead of sweeping the whole
   table under the registry lock on every request. *)
let test_sessions_gated_sweep () =
  let module Metrics = Flames_obs.Metrics in
  let expired0 =
    Metrics.counter_value Flames_serve.Telemetry.sessions_expired_total
  in
  let now = ref 0.5 in
  let reg = Admission.Sessions.create ~now:(fun () -> !now) ~cap:8 ~ttl:10. () in
  let put v =
    match Admission.Sessions.put reg v with
    | Ok id -> id
    | Error `Capacity -> Alcotest.failf "put %s" v
  in
  let a = put "a" in
  let _b = put "b" in
  now := 5.;
  let c = put "c" in
  now := 10.;
  (* a live lookup runs the due sweep (a and b still have 0.5 s left)
     and resets the sweep clock *)
  check_bool "c alive" true
    (Admission.Sessions.with_session reg c (fun v -> v) = Some "c");
  now := 10.6;
  (* a and b are now expired but the full sweep is not due again yet:
     the touched entry is still refused and dropped... *)
  check_bool "expired a refused on touch" true
    (Admission.Sessions.with_session reg a (fun v -> v) = None);
  (* ...while the idle sibling waits for the next due sweep *)
  check_int "b unswept inside the gate window" 2 (Admission.Sessions.count reg);
  now := 11.1;
  check_bool "unknown id lookup runs the due sweep" true
    (Admission.Sessions.with_session reg "zz" (fun v -> v) = None);
  check_int "b swept once due" 1 (Admission.Sessions.count reg);
  let expired1 =
    Metrics.counter_value Flames_serve.Telemetry.sessions_expired_total
  in
  check_int "both expiries counted" 2 (expired1 - expired0)

(* {1 Write-ahead ordering under journal failure (router level)} *)

(* Every mutating session route journals *before* touching in-memory
   state, so a failed append answers 500 with the step not applied:
   acknowledged memory never runs ahead of what a restart would
   replay, and a close can never be gone in memory yet live in the
   journal. A closed journal makes every append raise deterministically. *)
let test_router_journal_failure_keeps_state () =
  let pool = Flames_engine.Pool.create ~workers:1 () in
  Fun.protect ~finally:(fun () -> Flames_engine.Pool.shutdown pool)
  @@ fun () ->
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flames-serve-deadwal-%d" (Unix.getpid ()))
  in
  let dead = Flames_store.Journal.open_ ~fsync:Flames_store.Journal.Never dir in
  Flames_store.Journal.close dead;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let store = ref (Some dead) in
  let deps =
    {
      Router.pool;
      cache = Flames_engine.Cache.create ();
      admission = Admission.create ();
      sessions = Admission.Sessions.create ~cap:1 ();
      store;
      ready = (fun () -> true);
      draining = (fun () -> false);
      default_wall = 2.;
      max_wall = 10.;
    }
  in
  let req ?(body = "") path =
    Router.handle deps
      {
        Http.meth = "POST";
        path;
        query = "";
        version = "HTTP/1.1";
        headers = [];
        body;
      }
  in
  (* create: the journal refuses, so the only registry slot must be
     rolled back, not leaked *)
  check_int "create with dead journal" 500
    (req ~body:{|{"circuit":"divider"}|} "/session/create").Router.status;
  store := None;
  let created = req ~body:{|{"circuit":"divider"}|} "/session/create" in
  check_int "rolled-back slot reusable" 200 created.Router.status;
  let sid =
    match
      Option.bind
        (Result.to_option (Json.parse_result created.Router.body))
        (fun j -> Option.bind (Json.mem "session" j) Json.str_opt)
    with
    | Some id -> id
    | None -> Alcotest.fail "no session id"
  in
  let step op body = req ~body (Printf.sprintf "/session/%s/%s" sid op) in
  check_int "seed measurement" 200
    (step "measure" {|{"node": "mid", "value": 0.02, "spread": 0.05}|}).Router.status;
  store := Some dead;
  (* measure: 500 and the measurement was never entered *)
  check_int "measure with dead journal" 500
    (step "measure" {|{"node": "in", "value": 10.0, "spread": 0.1}|}).Router.status;
  check_int "refused measurement not applied" 404
    (step "retract" {|{"id": 2}|}).Router.status;
  (* retract/refine of the surviving measurement: 500, still there *)
  check_int "retract with dead journal" 500
    (step "retract" {|{"id": 1}|}).Router.status;
  check_int "refine with dead journal" 500
    (step "refine" {|{"id": 1, "value": 0.03}|}).Router.status;
  (* close: 500 and the session must still be registered *)
  check_int "close with dead journal" 500 (step "close" "{}").Router.status;
  check_int "session survives the refused close" 200
    (step "diagnoses" "{}").Router.status;
  store := None;
  check_int "measurement 1 survived the refused mutations" 200
    (step "refine" {|{"id": 1, "value": 0.03}|}).Router.status;
  check_int "close once the journal is back" 200 (step "close" "{}").Router.status;
  check_int "closed for real" 404 (step "diagnoses" "{}").Router.status

(* {1 Byte-dribbled reads} *)

(* A session-route request fed to the server one byte at a time: the
   request parser must assemble frames across however many partial
   reads the transport produces (and retry reads interrupted by
   signals — a SIGALRM ticker runs while the bytes dribble). *)
let test_dribbled_request () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      let created = post ~port "/session/create" {|{"circuit": "divider"}|} in
      check_int "create status" 200 created.Http.status;
      let sid =
        match
          Option.bind (Json.mem "session" (body_json created)) Json.str_opt
        with
        | Some id -> id
        | None -> Alcotest.fail "no session id"
      in
      let body = {|{"node": "mid", "value": 0.02, "spread": 0.05}|} in
      let raw =
        Printf.sprintf
          "POST /session/%s/measure HTTP/1.1\r\nHost: t\r\nContent-Length: \
           %d\r\nConnection: close\r\n\r\n%s"
          sid (String.length body) body
      in
      let old_alarm =
        Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()))
      in
      let old_timer =
        Unix.setitimer Unix.ITIMER_REAL
          { Unix.it_interval = 0.002; it_value = 0.002 }
      in
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
          Sys.set_signal Sys.sigalrm old_alarm)
      @@ fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          String.iteri
            (fun i c ->
              let rec put () =
                match Unix.write_substring fd (String.make 1 c) 0 1 with
                | 1 -> ()
                | _ -> Alcotest.fail "partial single-byte write"
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> put ()
              in
              put ();
              (* pause at frame-ish boundaries so the server really sees
                 the request arrive in many reads, not one burst *)
              if i mod 16 = 0 then Unix.sleepf 0.001)
            raw;
          match Http.read_response (Http.conn fd) with
          | Ok r ->
            check_int "dribbled request answered" 200 r.Http.status;
            check_bool "measurement entered" true
              (Json.mem "id" (body_json r) <> None)
          | Error _ -> Alcotest.fail "no parsable response to dribbled bytes"))

(* {1 Journaled restart (graceful drain)} *)

let test_e2e_journal_restart () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flames-serve-journal-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { ephemeral with Server.journal_dir = Some dir } in
  let stable (r : Http.response) =
    match body_json r with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") fields))
    | j -> Json.to_string j
  in
  let sid = ref "" in
  let before = ref "" in
  with_server ~config (fun server ->
      let port = Server.port server in
      let created = post ~port "/session/create" {|{"circuit": "divider"}|} in
      check_int "create status" 200 created.Http.status;
      (sid :=
         match
           Option.bind (Json.mem "session" (body_json created)) Json.str_opt
         with
         | Some id -> id
         | None -> Alcotest.fail "no session id");
      let step verb body =
        post ~port (Printf.sprintf "/session/%s/%s" !sid verb) body
      in
      check_int "measure mid" 200
        (step "measure" {|{"node": "mid", "value": 0.02, "spread": 0.05}|})
          .Http.status;
      check_int "measure in" 200
        (step "measure" {|{"node": "in", "value": 10.0, "spread": 0.1}|})
          .Http.status;
      before := stable (step "diagnoses" "{}"));
  (* stop snapshotted the drain; a second server on the same directory
     resumes the same session id with the identical diagnosis *)
  with_server ~config (fun server ->
      let port = Server.port server in
      let after =
        stable (post ~port (Printf.sprintf "/session/%s/diagnoses" !sid) "{}")
      in
      check_string "diagnosis survives the restart" !before after;
      (* recovered ids are reserved: a fresh session gets a new one *)
      let fresh = post ~port "/session/create" {|{"circuit": "divider"}|} in
      check_int "fresh create after recovery" 200 fresh.Http.status;
      (match
         Option.bind (Json.mem "session" (body_json fresh)) Json.str_opt
       with
      | Some id -> check_bool "fresh id differs" true (id <> !sid)
      | None -> Alcotest.fail "no fresh session id");
      (* the journal directory was compacted to snapshots on restart *)
      let metrics = request ~port "/metrics" in
      check_bool "restore counted" true
        (contains metrics.Http.resp_body
           "flames_serve_sessions_restored_total 1");
      check_bool "ready gauge up" true
        (contains metrics.Http.resp_body "flames_serve_ready 1"))

(* {1 Request-scoped observability over loopback} *)

module Recorder = Flames_obs.Recorder

(* Probe both `dune runtest` and `dune exec` working directories, like
   test_cli.ml. *)
let cli =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "flames_cli.exe");
      "_build/default/bin/flames_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "flames_cli.exe not found (build bin/ first)"

let slurp path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_route_name () =
  check_string "session step collapses the id" "/session/*/measure"
    (Router.route_name "/session/s12/measure");
  check_string "create is its own route" "/session/create"
    (Router.route_name "/session/create");
  check_string "known path verbatim" "/diagnose" (Router.route_name "/diagnose");
  check_string "unknown paths collapse" "other" (Router.route_name "/no-such")

(* The acceptance loop of the issue: one client-chosen trace id on a
   /session/* exchange is found again on the response header, the wide
   event, the flight-recorder dump (in-process and over GET
   /debug/flight) and a `flames tail` filter of the event log. *)
let test_e2e_trace_id () =
  Events.clear ();
  let log = Filename.temp_file "flames_events" ".jsonl" in
  let close = Events.file_sink log in
  let trace = "e2e-cafe.0001" in
  let sid = ref "" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  Fun.protect ~finally:close (fun () ->
      with_server ~config:ephemeral (fun server ->
          let port = Server.port server in
          let traced = [ ("X-Flames-Trace-Id", trace) ] in
          let created =
            post ~port ~headers:traced "/session/create"
              {|{"circuit": "divider"}|}
          in
          check_int "create status" 200 created.Http.status;
          check_bool "client trace id echoed" true
            (Http.header created.Http.resp_headers "x-flames-trace-id"
            = Some trace);
          (sid :=
             match
               Option.bind (Json.mem "session" (body_json created)) Json.str_opt
             with
             | Some id -> id
             | None -> Alcotest.fail "no session id");
          let m =
            post ~port ~headers:traced
              (Printf.sprintf "/session/%s/measure" !sid)
              {|{"node": "mid", "value": 0.02, "spread": 0.05}|}
          in
          check_int "measure status" 200 m.Http.status;
          check_bool "echoed on the step too" true
            (Http.header m.Http.resp_headers "x-flames-trace-id" = Some trace);
          (* no header: a fresh 16-hex id is generated and echoed *)
          let bare =
            post ~port
              (Printf.sprintf "/session/%s/diagnoses" !sid)
              "{}"
          in
          (match Http.header bare.Http.resp_headers "x-flames-trace-id" with
          | Some id ->
            check_bool "generated id shape" true
              (String.length id = 16 && id <> trace)
          | None -> Alcotest.fail "no generated trace id");
          (* an invalid client id is replaced, not echoed *)
          let bad =
            request ~port
              ~headers:[ ("X-Flames-Trace-Id", "not a valid id!") ]
              "/version"
          in
          check_bool "invalid id replaced" true
            (match Http.header bad.Http.resp_headers "x-flames-trace-id" with
            | Some id -> id <> "not a valid id!"
            | None -> false);
          (* the wide events carry the trace and the session id *)
          let evs = Events.recent () in
          check_bool "wide event carries the trace id" true
            (List.exists
               (fun e ->
                 e.Events.name = "http.request"
                 && e.Events.trace_id = Some trace)
               evs);
          check_bool "session id joined to the step's event" true
            (List.exists
               (fun e ->
                 e.Events.trace_id = Some trace
                 && e.Events.session_id = Some !sid)
               evs);
          (* flight recorder: in-process dump and the debug route *)
          check_bool "recorder dump finds the trace" true
            (contains (Recorder.dump ()) trace);
          let flight = request ~port "/debug/flight" in
          check_int "flight status" 200 flight.Http.status;
          let fj = body_json flight in
          (match Json.mem "events" fj with
          | Some (Json.Arr events) ->
            check_bool "flight events non-empty" true (events <> []);
            check_bool "flight event carries the trace" true
              (List.exists
                 (fun e -> Json.mem "trace" e = Some (Json.Str trace))
                 events)
          | _ -> Alcotest.fail "flight dump lacks an events array");
          (match Json.mem "spans" fj with
          | Some (Json.Arr _) -> ()
          | _ -> Alcotest.fail "flight dump lacks a spans array")));
  (* the log survives the server: filter it down to the trace *)
  let out = Filename.temp_file "flames_tail" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code =
    Sys.command
      (Printf.sprintf "%s tail %s --trace %s >%s 2>/dev/null" cli
         (Filename.quote log) trace (Filename.quote out))
  in
  check_int "tail exits 0" 0 code;
  let text = slurp out in
  check_bool "tail finds the traced requests" true (contains text trace);
  check_bool "tail shows the session route" true (contains text "/session/");
  let code =
    Sys.command
      (Printf.sprintf "%s tail %s --trace no-such-trace >%s 2>/dev/null" cli
         (Filename.quote log) (Filename.quote out))
  in
  check_int "tail filter exits 0" 0 code;
  check_string "foreign trace filters to nothing" "" (slurp out)

let test_e2e_route_digests () =
  with_server ~config:ephemeral (fun server ->
      let port = Server.port server in
      check_int "warm-up" 200 (request ~port "/healthz").Http.status;
      let metrics = request ~port "/metrics" in
      check_int "metrics status" 200 metrics.Http.status;
      let body = metrics.Http.resp_body in
      List.iter
        (fun needle ->
          check_bool ("metrics contains " ^ needle) true (contains body needle))
        [
          "# TYPE flames_serve_route_seconds summary";
          "flames_serve_route_seconds{route=\"/healthz\",quantile=\"0.5\"}";
          "flames_serve_route_seconds{route=\"/healthz\",quantile=\"0.99\"}";
          "flames_serve_route_seconds_count{route=\"/healthz\"}";
          "flames_serve_route_seconds_slo_breaches_total";
          "flames_serve_session_capacity";
        ])

let test_e2e_drain () =
  let server = Server.start ~config:ephemeral () in
  let port = Server.port server in
  check_int "alive before the drain" 200 (request ~port "/healthz").Http.status;
  check_bool "not draining" false (Server.draining server);
  Server.stop server;
  check_bool "draining after stop" true (Server.draining server);
  (match request ~port "/healthz" with
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _) ->
    ()
  | exception _ -> ()
  | _ -> Alcotest.fail "the drained server must refuse connections");
  Server.stop server (* idempotent *)

let () =
  Alcotest.run "flames_serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "http",
        [
          Alcotest.test_case "pipelined requests" `Quick test_http_requests;
          Alcotest.test_case "malformed input" `Quick test_http_malformed;
          Alcotest.test_case "body size limit" `Quick test_http_too_large;
          Alcotest.test_case "response roundtrip" `Quick
            test_http_response_roundtrip;
          Alcotest.test_case "byte mutations" `Quick test_http_mutations;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue sheds" `Quick
            test_admission_saturation;
          Alcotest.test_case "token buckets per client" `Quick
            test_admission_quota;
          Alcotest.test_case "Retry-After rounding" `Quick
            test_retry_after_header;
          Alcotest.test_case "session TTL (fake clock)" `Quick
            test_sessions_ttl;
          Alcotest.test_case "session cap and sweep" `Quick test_sessions_cap;
          Alcotest.test_case "sweep on lookup (fake clock)" `Quick
            test_sessions_sweep_on_lookup;
          Alcotest.test_case "gated sweep never resurrects (fake clock)" `Quick
            test_sessions_gated_sweep;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "503 while recovering" `Quick
            test_router_recovering;
          Alcotest.test_case "journal failure keeps state consistent" `Quick
            test_router_journal_failure_keeps_state;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "probes and routing" `Quick test_e2e_probes;
          Alcotest.test_case "diagnose over loopback" `Quick test_e2e_diagnose;
          Alcotest.test_case "input error discipline" `Quick
            test_e2e_input_errors;
          Alcotest.test_case "size limit and quotas" `Quick test_e2e_limits;
          Alcotest.test_case "session troubleshooting loop" `Quick
            test_e2e_session_loop;
          Alcotest.test_case "session capacity sheds" `Quick
            test_e2e_session_cap;
          Alcotest.test_case "session input errors" `Quick
            test_e2e_session_errors;
          Alcotest.test_case "byte-dribbled session request" `Quick
            test_dribbled_request;
          Alcotest.test_case "journaled restart" `Quick
            test_e2e_journal_restart;
          Alcotest.test_case "graceful drain" `Quick test_e2e_drain;
        ] );
      ( "observability",
        [
          Alcotest.test_case "route names" `Quick test_route_name;
          Alcotest.test_case "trace id end to end" `Quick test_e2e_trace_id;
          Alcotest.test_case "route digests in /metrics" `Quick
            test_e2e_route_digests;
        ] );
    ]
