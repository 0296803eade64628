(* FLAMES command-line interface: simulate, inject faults, diagnose and
   plan tests on the built-in circuits. *)

module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module Fault = Flames_circuit.Fault
module Library = Flames_circuit.Library

(* The built-in circuit catalog lives in the library so the diagnosis
   service serves exactly the same names. *)
let circuits = Library.builtins

let load_circuit name =
  match List.assoc_opt name circuits with
  | Some f -> Ok (f ())
  | None ->
    if Sys.file_exists name then
      match Flames_circuit.Parser.parse_file name with
      | Ok netlist -> Ok netlist
      | Error e ->
        Error
          (Format.asprintf "%s: %a" name Flames_circuit.Parser.pp_error e)
    else
      Error
        (Printf.sprintf
           "unknown circuit %S (available: %s, or a netlist file path)" name
           (String.concat ", " (List.map fst circuits)))

let parse_fault = Fault.of_spec

open Cmdliner
module Obs_log = Flames_obs.Log
module Err = Flames_core.Err

(* Exit discipline.  Malformed input — unknown circuit, unparsable
   netlist or scenario file, bad fault spec — exits 2 with a one-line
   message naming the file (and line, when there is one).  A run that
   failed for computational reasons — singular system, tripped check —
   exits 1, also on one line.  No exception may escape to a raw
   backtrace: [protect] converts anything a library raises into its
   structured {!Err.t} rendering. *)
let die_input fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("flames: " ^ m);
      exit 2)
    fmt

let die_run fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("flames: " ^ m);
      exit 1)
    fmt

let protect f =
  try f () with e -> die_run "%s" (Err.to_string (Err.of_exn e))

(* --trace/--metrics/--quiet/-v are shared by every subcommand: the term
   performs its side effects (log level, tracer arming, at_exit
   exporters) during argument evaluation and yields (), which each
   command's run function consumes first. *)
let obs_term =
  let trace_arg =
    let doc =
      "Record a span trace of the whole run and write it to $(docv) as \
       Chrome trace_event JSON (open in Perfetto, ui.perfetto.dev, or \
       about:tracing)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc = "Print the metrics-registry summary on stderr at exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let quiet_arg =
    let doc = "Only log errors." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  let verbose_arg =
    let doc = "Increase log verbosity (repeatable: -v info, -vv debug)." in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let setup trace metrics quiet verbose =
    Obs_log.set_level
      (if quiet then Obs_log.Error
       else
         match List.length verbose with
         | 0 -> Obs_log.Warn
         | 1 -> Obs_log.Info
         | _ -> Obs_log.Debug);
    (* at_exit so the dumps also cover runs that fail and [exit 1] *)
    Option.iter
      (fun path ->
        Flames_obs.Trace.start ();
        at_exit (fun () ->
            Flames_obs.Trace.stop ();
            Flames_obs.Export.write_chrome_trace path;
            Obs_log.info "trace: %d events -> %s"
              (Flames_obs.Trace.event_count ())
              path))
      trace;
    if metrics then
      at_exit (fun () ->
          Flames_obs.Export.summary Format.err_formatter;
          Format.pp_print_flush Format.err_formatter ())
  in
  Term.(const setup $ trace_arg $ metrics_arg $ quiet_arg $ verbose_arg)

(* --wide-events is shared by the commands that emit per-request /
   per-step wide events (serve, batch, troubleshoot): it installs a
   JSON-lines sink for the run and closes it at exit. *)
let wide_events_term =
  let arg =
    let doc =
      "Append one JSON wide event per request / session step / batch job \
       to $(docv) (one object per line; filter with 'flames tail')."
    in
    Arg.(
      value & opt (some string) None & info [ "wide-events" ] ~docv:"FILE" ~doc)
  in
  let setup = function
    | None -> ()
    | Some path ->
      let close = Flames_obs.Events.file_sink path in
      at_exit close
  in
  Term.(const setup $ arg)

let circuit_arg =
  let doc =
    Printf.sprintf "Circuit to operate on: %s, or a path to a netlist file."
      (String.concat ", " (List.map fst circuits))
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let fault_arg =
  let doc =
    "Fault to inject, as comp.param=mode; mode is short, open, low, high \
     or a numeric value (e.g. r2.R=short, t2.beta=194)."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let probes_arg =
  let doc = "Node to probe (repeatable); default: every node." in
  Arg.(value & opt_all string [] & info [ "probe" ] ~docv:"NODE" ~doc)

let trusted_arg =
  let doc = "Component assumed correct a priori (repeatable)." in
  Arg.(value & opt_all string [] & info [ "trust" ] ~docv:"COMP" ~doc)

let instrument_arg =
  let doc = "Relative measurement imprecision (default 0.002)." in
  Arg.(value & opt float 0.002 & info [ "imprecision" ] ~doc)

let with_circuit name f =
  match load_circuit name with
  | Ok netlist -> protect (fun () -> f netlist)
  | Error e -> die_input "%s" e

let inject_opt netlist = function
  | None -> Ok netlist
  | Some spec -> begin
    match parse_fault spec with
    | Ok fault -> begin
      match Fault.inject netlist fault with
      | net -> Ok net
      | exception Not_found ->
        Error (Printf.sprintf "no such component/parameter in %S" spec)
    end
    | Error e -> Error e
  end

let observations netlist probes relative =
  let sol = Flames_sim.Mna.solve netlist in
  let nodes =
    match probes with
    | [] ->
      List.filter_map
        (fun q ->
          match q with
          | Q.Node_voltage n -> Some n
          | Q.Branch_current _ | Q.Terminal_current _ | Q.Voltage_drop _
          | Q.Parameter _ ->
            None)
        (Library.probe_points netlist)
    | ps -> ps
  in
  let instrument = { Flames_sim.Measure.relative; floor = 5e-4 } in
  Flames_sim.Measure.probe_all ~instrument sol (List.map Q.voltage nodes)

let bias_cmd =
  let run () name =
    with_circuit name (fun netlist ->
        let sol = Flames_sim.Mna.solve netlist in
        Format.printf "%a" Flames_sim.Mna.pp sol)
  in
  Cmd.v (Cmd.info "bias" ~doc:"Print the DC operating point.")
    Term.(const run $ obs_term $ circuit_arg)

let diagnose_cmd =
  let run () name fault probes trusted relative =
    with_circuit name (fun nominal ->
        match inject_opt nominal fault with
        | Error e -> die_input "%s" e
        | Ok faulty ->
          let obs = observations faulty probes relative in
          let config =
            { Flames_core.Model.default_config with trusted }
          in
          let result = Flames_core.Diagnose.run ~config nominal obs in
          Format.printf "%a" Flames_core.Report.pp_result result;
          Format.printf "%s@." (Flames_core.Report.summary result))
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Simulate the (faulty) circuit, probe it and run the diagnosis.")
    Term.(
      const run $ obs_term $ circuit_arg $ fault_arg $ probes_arg
      $ trusted_arg $ instrument_arg)

let best_test_cmd =
  let run () name fault probes trusted relative =
    with_circuit name (fun nominal ->
        match inject_opt nominal fault with
        | Error e -> die_input "%s" e
        | Ok faulty ->
          let obs = observations faulty probes relative in
          let config = { Flames_core.Model.default_config with trusted } in
          let result = Flames_core.Diagnose.run ~config nominal obs in
          let estimations = Flames_strategy.Estimation.of_diagnosis result in
          let probed =
            List.map (fun (q, _) -> q) obs
          in
          let tests =
            Flames_strategy.Best_test.test_points_of_netlist nominal
            |> List.filter (fun (t : Flames_strategy.Best_test.test_point) ->
                   not
                     (List.exists
                        (Q.equal t.Flames_strategy.Best_test.quantity)
                        probed))
          in
          let ranking = Flames_strategy.Best_test.rank estimations tests in
          List.iter
            (fun e ->
              Format.printf "%a@." Flames_strategy.Best_test.pp_evaluation e)
            ranking)
  in
  Cmd.v
    (Cmd.info "best-test"
       ~doc:"Rank the unprobed nodes by fuzzy expected entropy.")
    Term.(
      const run $ obs_term $ circuit_arg $ fault_arg $ probes_arg
      $ trusted_arg $ instrument_arg)

let show_cmd =
  let run () name =
    with_circuit name (fun netlist ->
        print_string (Flames_circuit.Parser.to_string netlist))
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the circuit in the netlist text format.")
    Term.(const run $ obs_term $ circuit_arg)

let frequencies_arg =
  let doc = "Frequency in hertz (repeatable)." in
  Arg.(value & opt_all float [ 100.; 1000.; 10000. ]
       & info [ "freq" ] ~docv:"HZ" ~doc)

let node_arg =
  let doc = "Output node to report (default: every node)." in
  Arg.(value & opt (some string) None & info [ "node" ] ~docv:"NODE" ~doc)

let ac_cmd =
  let run () name fault frequencies node =
    with_circuit name (fun nominal ->
        match inject_opt nominal fault with
        | Error e -> die_input "%s" e
        | Ok netlist ->
          List.iter
            (fun f ->
              match Flames_sim.Ac.solve netlist f with
              | r ->
                let nodes =
                  match node with
                  | Some n -> [ n ]
                  | None ->
                    List.filter
                      (fun n -> n <> netlist.Flames_circuit.Netlist.ground)
                      (Flames_circuit.Netlist.nodes netlist)
                in
                List.iter
                  (fun n ->
                    Format.printf "%10.2f Hz  |V(%s)| = %.6g  (%.2f dB)@." f n
                      (Flames_sim.Ac.magnitude r n)
                      (Flames_sim.Ac.gain_db r n))
                  nodes
              | exception Flames_sim.Ac.Unsupported m ->
                die_run "AC analysis unsupported: %s" m)
            frequencies)
  in
  Cmd.v
    (Cmd.info "ac" ~doc:"Print the small-signal frequency response.")
    Term.(
      const run $ obs_term $ circuit_arg $ fault_arg $ frequencies_arg
      $ node_arg)

let dynamic_diagnose_cmd =
  let run () name fault frequencies node relative trusted =
    with_circuit name (fun nominal ->
        match inject_opt nominal fault with
        | Error e -> die_input "%s" e
        | Ok faulty ->
          let node =
            match node with
            | Some n -> n
            | None -> die_input "dynamic-diagnose requires --node"
          in
          let instrument = { Flames_sim.Measure.relative; floor = 5e-4 } in
          let observations =
            List.map
              (fun frequency ->
                Flames_core.Dynamic.observe ~instrument faulty ~node
                  ~frequency)
              frequencies
          in
          let result =
            Flames_core.Dynamic.run ~trusted nominal observations
          in
          Format.printf "%a" Flames_core.Dynamic.pp_result result)
  in
  Cmd.v
    (Cmd.info "dynamic-diagnose"
       ~doc:
         "Measure output magnitudes of the (faulty) circuit at the given           frequencies and run the frequency-domain diagnosis.")
    Term.(
      const run $ obs_term $ circuit_arg $ fault_arg $ frequencies_arg
      $ node_arg $ instrument_arg $ trusted_arg)

(* batch scenario files: one job per line,
     <circuit> [comp.param=mode] [probe,probe,...]
   where <circuit> is a built-in name or a netlist file path; '#' starts
   a comment.  Fields after the circuit are recognised by shape (a fault
   spec contains '='). *)
let parse_batch_line lineno line =
  match String.split_on_char '#' line with
  | [] -> Ok None
  | code :: _ -> begin
    match
      String.split_on_char ' ' code
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun f -> f <> "")
    with
    | [] -> Ok None
    | circuit :: fields ->
      let fault, probes =
        List.partition (fun f -> String.contains f '=') fields
      in
      let fault = match fault with [] -> None | spec :: _ -> Some spec in
      let probes =
        List.concat_map (String.split_on_char ',') probes
        |> List.filter (fun p -> p <> "")
      in
      (match load_circuit circuit with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok nominal -> begin
        match inject_opt nominal fault with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok faulty ->
          let label =
            match fault with
            | Some spec -> Printf.sprintf "%s %s" circuit spec
            | None -> circuit
          in
          Ok (Some (label, nominal, faulty, probes))
      end)
  end

let read_batch_file path =
  let ic = open_in path in
  let rec loop lineno acc =
    match input_line ic with
    | line -> begin
      match parse_batch_line lineno line with
      | Ok None -> loop (lineno + 1) acc
      | Ok (Some job) -> loop (lineno + 1) (job :: acc)
      | Error e ->
        close_in ic;
        Error e
    end
    | exception End_of_file ->
      close_in ic;
      Ok (List.rev acc)
  in
  loop 1 []

let workers_arg =
  let doc = "Worker domains for the batch engine (default 4)." in
  Arg.(value & opt int 4 & info [ "workers"; "j" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc = "Per-job timeout in seconds (default: none)." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"S" ~doc)

let file_arg =
  let doc =
    "Scenario list: one 'circuit [comp.param=mode] [probe,probe,...]' per \
     line, '#' comments.  Without a file, the paper's five fig-7 defect \
     scenarios are run."
  in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let stats_json_arg =
  let doc =
    "Also write the run statistics to $(docv) as JSON (same schema as the \
     bench harness's BENCH_*.json rows)."
  in
  Arg.(
    value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let batch_cmd =
  let run () () file workers timeout trusted relative stats_json =
    if workers < 1 then
      die_input "batch: --workers must be >= 1 (got %d)" workers;
    protect @@ fun () ->
    let jobs =
      match file with
      | None -> Flames_experiments.Fig7.jobs ()
      | Some path -> begin
        match read_batch_file path with
        | Error e -> die_input "%s: %s" path e
        | Ok lines ->
          let config = { Flames_core.Model.default_config with trusted } in
          List.map
            (fun (label, nominal, faulty, probes) ->
              let obs = observations faulty probes relative in
              Flames_engine.Batch.job ~label ~config nominal obs)
            lines
      end
    in
    let cache = Flames_engine.Cache.create () in
    let outcomes, stats =
      Flames_engine.Batch.run ~workers ~cache ?timeout jobs
    in
    List.iter2
      (fun (j : Flames_engine.Batch.job) outcome ->
        Format.printf "%-24s %a@." j.Flames_engine.Batch.label
          Flames_engine.Batch.pp_outcome outcome)
      jobs outcomes;
    Format.printf "%a@." Flames_engine.Stats.pp stats;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Flames_engine.Stats.to_json stats);
        output_char oc '\n';
        close_out oc;
        Obs_log.info "stats: wrote %s" path)
      stats_json;
    if List.exists Result.is_error outcomes then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Diagnose a list of fault scenarios concurrently on the \
          domain-pool batch engine, with model-compilation caching, and \
          print per-job summaries plus engine statistics.")
    Term.(
      const run $ obs_term $ wide_events_term $ file_arg $ workers_arg
      $ timeout_arg $ trusted_arg $ instrument_arg $ stats_json_arg)

let list_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) circuits
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in circuits.")
    Term.(const run $ obs_term)

let obs_demo_cmd =
  let run () workers =
    protect @@ fun () ->
    let rows, stats = Flames_experiments.Fig7.run_parallel ~workers () in
    Flames_experiments.Fig7.print Format.std_formatter rows;
    Format.printf "%a@.@." Flames_engine.Stats.pp stats;
    Flames_obs.Export.summary Format.std_formatter
  in
  let workers_arg =
    let doc = "Worker domains for the demo sweep (default 2)." in
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "obs-demo"
       ~doc:
         "Observability showcase: run the paper's fig-7 defect sweep on \
          the batch engine and print the metrics-registry summary.  Add \
          --trace FILE to capture a Chrome trace with one track per \
          worker domain, and --metrics for the registry dump on stderr.")
    Term.(const run $ obs_term $ workers_arg)

let check_cmd =
  let run () iters seed corpus_dir write_corpus skip_corpus =
    if iters < 1 then
      die_input "check: --iters must be >= 1 (got %d)" iters;
    protect @@ fun () ->
    if write_corpus then begin
      let written = Flames_check.Corpus.write ~dir:corpus_dir in
      List.iter (Format.printf "wrote %s@.") written
    end;
    let sections =
      Flames_check.Runner.run_all ?seed ~log:print_endline ~iters ()
    in
    let sweep_ok = Flames_check.Runner.ok sections in
    if not sweep_ok then
      Format.printf "@.%a" Flames_check.Runner.pp sections;
    let corpus_ok =
      if skip_corpus || write_corpus then true
      else begin
        let reports = Flames_check.Corpus.check ~dir:corpus_dir in
        List.iter
          (fun r ->
            Format.printf "corpus %a@." Flames_check.Corpus.pp_report r)
          reports;
        Flames_check.Corpus.ok reports
      end
    in
    if sweep_ok && corpus_ok then Format.printf "check: all sections ok@."
    else die_run "check: FAILED"
  in
  let iters_arg =
    let doc = "Random cases per oracle section (default 200)." in
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Root seed of the sweep; reuse the seed printed by a failure to \
       reproduce it exactly."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let corpus_arg =
    let doc = "Directory of the golden snapshot corpus." in
    Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let write_arg =
    let doc =
      "(Re)render the golden corpus into the corpus directory instead of \
       diffing against it."
    in
    Arg.(value & flag & info [ "write-corpus" ] ~doc)
  in
  let skip_arg =
    let doc = "Run only the randomised sweep, skip the corpus diff." in
    Arg.(value & flag & info [ "no-corpus" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Deep verification sweep: differential oracles (hitting sets, \
          fuzzy arithmetic, consistency, MNA, batch determinism), ATMS \
          and diagnosis invariants on random circuits, and the golden \
          snapshot corpus of the amplifier experiments.")
    Term.(
      const run $ obs_term $ iters_arg $ seed_arg $ corpus_arg $ write_arg
      $ skip_arg)

let chaos_cmd =
  let run () iters seed jobs workers =
    if iters < 1 then die_input "chaos: --iters must be >= 1 (got %d)" iters;
    if jobs < 1 then die_input "chaos: --jobs must be >= 1 (got %d)" jobs;
    if workers < 1 then
      die_input "chaos: --workers must be >= 1 (got %d)" workers;
    protect @@ fun () ->
    let config = { Flames_check.Chaos.default with jobs; workers } in
    let failures = ref 0 in
    for case = 0 to iters - 1 do
      let case_seed = Flames_check.Rng.case_seed ~seed ~case in
      match Flames_check.Chaos.run ~config:{ config with seed = case_seed } ()
      with
      | Ok report ->
        if case = 0 then
          Format.printf "%a@." Flames_check.Chaos.pp_report report
      | Error m ->
        incr failures;
        (* the seed is the whole reproduction recipe: print it *)
        Format.eprintf "chaos: case %d FAILED (replay with --seed %d): %s@."
          case case_seed m
    done;
    if !failures = 0 then
      Format.printf "chaos: %d cases ok (root seed %d)@." iters seed
    else
      die_run "chaos: %d/%d cases failed (root seed %d)" !failures iters seed
  in
  let iters_arg =
    let doc = "Chaotic batches to run (default 10)." in
    Arg.(value & opt int 10 & info [ "iters" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Root seed; reuse the seed printed by a failing case to replay it."
    in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs_arg =
    let doc = "Jobs per chaotic batch (default 8)." in
    Arg.(value & opt int 8 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains per batch (default 3)." in
    Arg.(value & opt int 3 & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos harness: run seeded batches of random diagnoses with \
          injected faults (exceptions, worker kills, singular systems, \
          NaN measurements, delays) through the full resilience stack — \
          budgets, retry, circuit breaker, worker supervision — and \
          check every resilience invariant.  Deterministic per seed.")
    Term.(
      const run $ obs_term $ iters_arg $ seed_arg $ jobs_arg $ workers_arg)

let serve_cmd =
  let module Server = Flames_serve.Server in
  let run () () flight_dump host port workers max_inflight quota_rate
      quota_burst max_body default_wall max_wall session_cap session_ttl
      journal fsync fsync_interval journal_segment_bytes =
    if workers < 1 then
      die_input "serve: --workers must be >= 1 (got %d)" workers;
    if max_inflight < 1 then
      die_input "serve: --max-inflight must be >= 1 (got %d)" max_inflight;
    if max_body < 1 then
      die_input "serve: --max-body must be >= 1 (got %d)" max_body;
    if session_cap < 1 then
      die_input "serve: --session-cap must be >= 1 (got %d)" session_cap;
    if session_ttl <= 0. then
      die_input "serve: --session-ttl must be > 0 (got %g)" session_ttl;
    if fsync_interval <= 0. then
      die_input "serve: --fsync-interval must be > 0 (got %g)" fsync_interval;
    if journal_segment_bytes < 4096 then
      die_input "serve: --journal-segment-bytes must be >= 4096 (got %d)"
        journal_segment_bytes;
    let journal_fsync =
      match fsync with
      | "always" -> Flames_store.Journal.Always
      | "interval" -> Flames_store.Journal.Interval fsync_interval
      | "never" -> Flames_store.Journal.Never
      | other ->
        die_input "serve: --fsync must be always, interval or never (got %S)"
          other
    in
    protect @@ fun () ->
    Flames_obs.Recorder.arm_crash_dump flight_dump;
    let config =
      {
        Server.default_config with
        host;
        port;
        workers;
        max_inflight;
        quota_rate;
        quota_burst;
        max_body;
        default_wall;
        max_wall;
        session_cap;
        session_ttl;
        journal_dir = journal;
        journal_fsync;
        journal_segment_bytes;
      }
    in
    Server.run ~config ()
  in
  let d = Server.default_config in
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string d.Server.host & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "Port to bind (0 = ephemeral)." in
    Arg.(value & opt int d.Server.port & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains running diagnoses." in
    Arg.(
      value & opt int d.Server.workers & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  let inflight_arg =
    let doc =
      "Admission bound: requests admitted but unanswered before new ones \
       are shed with 429."
    in
    Arg.(
      value
      & opt int d.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let quota_rate_arg =
    let doc =
      "Per-client diagnosis quota in requests/second (X-Flames-Client \
       header; 0 disables quotas)."
    in
    Arg.(
      value
      & opt float d.Server.quota_rate
      & info [ "quota-rate" ] ~docv:"RPS" ~doc)
  in
  let quota_burst_arg =
    let doc = "Per-client quota burst (token-bucket size)." in
    Arg.(
      value
      & opt float d.Server.quota_burst
      & info [ "quota-burst" ] ~docv:"N" ~doc)
  in
  let max_body_arg =
    let doc = "Request-body size limit in bytes (413 beyond)." in
    Arg.(
      value & opt int d.Server.max_body & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let default_wall_arg =
    let doc = "Default per-request diagnosis budget in seconds." in
    Arg.(
      value
      & opt float d.Server.default_wall
      & info [ "default-wall" ] ~docv:"S" ~doc)
  in
  let max_wall_arg =
    let doc = "Cap on the client-requested budget_ms, in seconds." in
    Arg.(
      value & opt float d.Server.max_wall & info [ "max-wall" ] ~docv:"S" ~doc)
  in
  let session_cap_arg =
    let doc =
      "Live troubleshooting sessions held at once (POST /session/create \
       answers 429 beyond)."
    in
    Arg.(
      value
      & opt int d.Server.session_cap
      & info [ "session-cap" ] ~docv:"N" ~doc)
  in
  let session_ttl_arg =
    let doc = "Idle troubleshooting-session expiry, in seconds." in
    Arg.(
      value
      & opt float d.Server.session_ttl
      & info [ "session-ttl" ] ~docv:"S" ~doc)
  in
  let flight_dump_arg =
    let doc =
      "Where to dump the flight recorder (last wide events + trace spans) \
       on an uncaught exception."
    in
    Arg.(
      value
      & opt string "flames-flight.json"
      & info [ "flight-dump" ] ~docv:"FILE" ~doc)
  in
  let journal_arg =
    let doc =
      "Session journal directory: every mutating /session/* step is \
       written ahead of its reply, a restart replays the journal so \
       sessions survive kill -9, and SIGTERM snapshots them on drain.  \
       Omit to keep sessions in memory only."
    in
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)
  in
  let fsync_arg =
    let doc =
      "Journal durability: $(b,always) fsyncs every step before its \
       reply, $(b,interval) fsyncs at most every --fsync-interval \
       seconds, $(b,never) leaves it to the OS."
    in
    Arg.(value & opt string "interval" & info [ "fsync" ] ~docv:"MODE" ~doc)
  in
  let fsync_interval_arg =
    let doc = "Seconds between journal fsyncs when --fsync=interval." in
    Arg.(
      value & opt float 0.05 & info [ "fsync-interval" ] ~docv:"S" ~doc)
  in
  let journal_segment_bytes_arg =
    let doc =
      "Journal segment size before rotation compacts the live sessions \
       into a fresh segment."
    in
    Arg.(
      value
      & opt int d.Server.journal_segment_bytes
      & info [ "journal-segment-bytes" ] ~docv:"BYTES" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the diagnosis service: POST /diagnose with a JSON request \
          (or a batch scenario line) against the built-in circuits or an \
          inline netlist, POST /session/* for persistent interactive \
          troubleshooting sessions (create/measure/retract/refine/\
          diagnoses/next, bounded by --session-cap with an idle \
          --session-ttl, optionally journaled to --journal so they \
          survive restarts and kill -9), GET /metrics for Prometheus \
          exposition, /healthz, /readyz and /version.  Overload is shed \
          with 429 and Retry-After; SIGTERM drains gracefully.")
    Term.(
      const run $ obs_term $ wide_events_term $ flight_dump_arg $ host_arg
      $ port_arg $ workers_arg $ inflight_arg $ quota_rate_arg
      $ quota_burst_arg $ max_body_arg $ default_wall_arg $ max_wall_arg
      $ session_cap_arg $ session_ttl_arg $ journal_arg $ fsync_arg
      $ fsync_interval_arg $ journal_segment_bytes_arg)

let troubleshoot_cmd =
  let module Script = Flames_session.Script in
  let run () () file no_echo max_candidates =
    protect @@ fun () ->
    let text =
      match file with
      | None | Some "-" -> In_channel.input_all In_channel.stdin
      | Some path ->
        if Sys.file_exists path then
          In_channel.with_open_bin path In_channel.input_all
        else die_input "troubleshoot: no such script %S" path
    in
    match Script.parse text with
    | Error e -> die_input "troubleshoot: %s" e
    | Ok commands -> (
      let session_of netlist =
        match max_candidates with
        | None -> Flames_session.Session.create netlist
        | Some n ->
          Flames_session.Session.create
            ~budget_spec:(Flames_core.Budget.spec ~max_candidates:n ())
            netlist
      in
      match Script.run ~echo:(not no_echo) ~session_of commands with
      | Ok _ -> ()
      | Error e -> die_run "troubleshoot: %s" e)
  in
  let file_arg =
    let doc =
      "Troubleshooting script to replay ('-' or absent reads stdin).  One \
       command per line: circuit, fault, imprecision, probe, measure, \
       retract, refine, diagnoses, next, status, quit; '#' comments."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc)
  in
  let no_echo_arg =
    let doc = "Do not echo each command as '> cmd' before its output." in
    Arg.(value & flag & info [ "no-echo" ] ~doc)
  in
  let max_candidates_arg =
    let doc = "Per-diagnosis candidate budget (degrades, never fails)." in
    Arg.(
      value
      & opt (some int) None
      & info [ "max-candidates" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "troubleshoot"
       ~doc:
         "Interactive troubleshooting session (paper section 8): keep one \
          circuit's compiled model and ATMS state alive while measurements \
          arrive, retract or refine them, and ask for the ranked diagnosis \
          and the fuzzy-entropy best next test after any step.  Reads a \
          script from a file or stdin, so it pipes: echo 'circuit \
          amplifier' | flames troubleshoot.")
    Term.(
      const run $ obs_term $ wide_events_term $ file_arg $ no_echo_arg
      $ max_candidates_arg)

let tail_cmd =
  let module Json = Flames_serve.Json in
  (* One pretty line per wide event: timestamp, event name, the
     correlation keys, then the remaining fields as k=v. *)
  let render_num f =
    if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else Printf.sprintf "%g" f
  in
  let render_value = function
    | Json.Null -> "null"
    | Json.Bool b -> string_of_bool b
    | Json.Num f -> render_num f
    | Json.Str s -> s
    | (Json.Arr _ | Json.Obj _) as v -> Json.to_string v
  in
  let render_event fields =
    let buf = Buffer.create 128 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    (match List.assoc_opt "ts" fields with
    | Some (Json.Num ts) ->
      let frac = ts -. Float.of_int (int_of_float ts) in
      let tm = Unix.gmtime ts in
      add "%02d:%02d:%02d.%03d " tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
        (int_of_float (frac *. 1e3))
    | _ -> ());
    (match List.assoc_opt "event" fields with
    | Some (Json.Str name) -> add "%-16s" name
    | _ -> add "%-16s" "?");
    List.iter
      (fun key ->
        match List.assoc_opt key fields with
        | Some v -> add " %s=%s" key (render_value v)
        | None -> ())
      [ "trace"; "session"; "route"; "status" ];
    List.iter
      (fun (key, v) ->
        match key with
        | "seq" | "ts" | "event" | "trace" | "session" | "route" | "status" ->
          ()
        | _ -> add " %s=%s" key (render_value v))
      fields;
    Buffer.contents buf
  in
  let matches filter key fields =
    match filter with
    | None -> true
    | Some want -> (
      match List.assoc_opt key fields with
      | Some (Json.Str got) -> String.equal got want
      | _ -> false)
  in
  let run file trace session last =
    protect @@ fun () ->
    let text =
      match file with
      | "-" -> In_channel.input_all In_channel.stdin
      | path ->
        if Sys.file_exists path then
          In_channel.with_open_bin path In_channel.input_all
        else die_input "tail: no such event log %S" path
    in
    let selected =
      String.split_on_char '\n' text
      |> List.filteri (fun i line ->
             let line = String.trim line in
             if line = "" then false
             else
               match Json.parse_result line with
               | Ok (Json.Obj fields) ->
                 matches trace "trace" fields
                 && matches session "session" fields
               | Ok _ | Error _ ->
                 Printf.eprintf "tail: line %d: not a wide event, skipped\n"
                   (i + 1);
                 false)
      |> List.filter_map (fun line ->
             match Json.parse_result (String.trim line) with
             | Ok (Json.Obj fields) -> Some fields
             | _ -> None)
    in
    let selected =
      match last with
      | None -> selected
      | Some n ->
        let len = List.length selected in
        if len <= n then selected
        else List.filteri (fun i _ -> i >= len - n) selected
    in
    List.iter (fun fields -> print_endline (render_event fields)) selected
  in
  let file_arg =
    let doc = "Wide-event log to read, as written by --wide-events \
               ('-' reads stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc = "Only events carrying this trace id." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"ID" ~doc)
  in
  let session_arg =
    let doc = "Only events carrying this session id." in
    Arg.(value & opt (some string) None & info [ "session" ] ~docv:"ID" ~doc)
  in
  let last_arg =
    let doc = "Print only the last $(docv) matching events." in
    Arg.(value & opt (some int) None & info [ "last" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Pretty-print a wide-event log (one JSON object per line, as \
          written by the --wide-events flag of serve, batch and \
          troubleshoot), optionally filtered to one trace or session id: \
          the first stop when turning a slow or failed request's trace id \
          into its per-stage timings and admission decisions.")
    Term.(const run $ file_arg $ trace_arg $ session_arg $ last_arg)

let main =
  let info =
    Cmd.info "flames" ~version:Flames_serve.Version.current
      ~doc:"Fuzzy-logic ATMS and model-based diagnosis of analog circuits."
  in
  Cmd.group info
    [
      bias_cmd; diagnose_cmd; best_test_cmd; ac_cmd; dynamic_diagnose_cmd;
      batch_cmd; show_cmd; list_cmd; serve_cmd; check_cmd; chaos_cmd;
      obs_demo_cmd; troubleshoot_cmd; tail_cmd;
    ]

let () = exit (Cmd.eval main)
