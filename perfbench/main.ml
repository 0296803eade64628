(* perfbench: FLAMES end to end, socket to answer.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke
     main.exe --self-test BENCHMARK.json

   The last line of a run is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1).  A wrong answer makes the run exit 1. *)

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       main.exe --smoke | --self-test BENCHMARK.json"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let unit_of name =
  match
    List.find_opt
      (fun (m : Catalogue.metric) -> m.Catalogue.name = name)
      (Catalogue.end_to_end @ Catalogue.unbounded @ Catalogue.per_layer)
  with
  | Some m -> m.Catalogue.unit_
  | None -> "count"

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (unit_of name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let print_metrics metrics =
  List.iter
    (fun (name, v) -> Printf.printf "  %-30s %14.6f %s\n" name v (unit_of name))
    metrics

(* A p95 needs ten samples beyond it to mean anything. *)
let min_samples = 200

(* The open-loop generator counts as behind when its own send lateness
   (not waiting for a busy connection) exceeds this at the p95. *)
let max_generator_lag = 0.002

(* Every metric must be a finite number; a run that cannot produce one
   has gone wrong. *)
let finite metrics =
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then die "metric %s is not finite" name)
    metrics

let run_e2e w ~seed ~seconds ~workdir =
  let o = E2e.run w ~seed ~seconds ~workdir in
  let t_check = Stat.now () in
  let failed_ops =
    List.length (List.filter (fun (r : E2e.record) -> not (r.E2e.verdict ())) o.E2e.records)
  in
  Option.iter (Printf.printf "  first failure: %s\n") (Check.first_failure ());
  let attempted = List.length o.E2e.records in
  let failed = failed_ops + o.E2e.aux_failures in
  let lat = List.map (fun (r : E2e.record) -> r.E2e.latency *. 1e3) o.E2e.records in
  let metrics =
    [
      ("setup_s", o.E2e.setup_s);
      ("latency_p50_ms", Stat.median lat);
      ("latency_p95_ms", Stat.quantile 0.95 lat);
      ("throughput_rps", Stat.ratio (float_of_int attempted) o.E2e.wall);
      ("cpu_ms_per_req", Stat.ratio (o.E2e.cpu *. 1e3) (float_of_int attempted));
    ]
  in
  let unbounded =
    [
      ("error_rate", Stat.ratio (float_of_int failed) (float_of_int (max 1 attempted)));
      ("peak_rss_mb", Stat.peak_rss_mb ());
    ]
  in
  Printf.printf "perfbench %s seed=%d seconds=%g cores=%d conns=%d\n" (Work.name w) seed
    seconds (Stat.cores ()) o.E2e.conns;
  Printf.printf
    "  operations attempted=%d succeeded=%d failed=%d; latency samples=%d (%d beyond p95); answers checked in %.1f s\n"
    attempted (attempted - failed_ops) failed attempted (attempted / 20)
    (Stat.now () -. t_check);
  print_metrics (metrics @ unbounded);
  if attempted < min_samples then
    Printf.printf "  warning: %d operations leave fewer than 10 samples beyond p95\n" attempted;
  (match o.E2e.generator_lag_p95 with
  | Some lag ->
    Printf.printf "  generator lag p95 %.3f ms (offered %.0f/s)\n" (lag *. 1e3) Work.catalog_rate;
    if lag > max_generator_lag then begin
      Printf.printf "invalid run: the load generator fell behind its schedule\n%!";
      exit 3
    end
  | None -> ());
  finite metrics;
  (failed = 0 && attempted > 0, max 1 attempted, failed, metrics)

let run_traced w ~seed ~seconds ~workdir =
  let t = Traced.run w ~seed ~seconds ~workdir in
  Printf.printf "perfbench %s traced seed=%d seconds=%g cores=%d\n" (Work.name w) seed seconds
    (Stat.cores ());
  Printf.printf "  traced operations=%d failed=%d\n" t.Traced.attempted t.Traced.failed;
  Traced.print_breakdown t;
  print_metrics t.Traced.metrics;
  finite t.Traced.metrics;
  (t.Traced.failed = 0 && t.Traced.attempted > 0, max 1 t.Traced.attempted, t.Traced.failed, t.Traced.metrics)

(* Scratch space for journals, inside the working directory. *)
let with_workdir f =
  let dir = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ())) in
  Stat.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Stat.rm_rf dir;
      try Unix.rmdir ".perfbench-work" with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.assoc_opt workload Work.workloads with
    | Some w -> w
    | None -> die "unknown workload %S (known: %s)" workload (String.concat ", " (List.map fst Work.workloads))
  in
  let correct, attempted, failed, metrics =
    with_workdir (fun workdir ->
        if trace then run_traced w ~seed ~seconds ~workdir
        else run_e2e w ~seed ~seconds ~workdir)
  in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

(* Every workload, briefly, on the default and a held-out seed, untraced
   and traced: the answer check must pass everywhere. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun seed ->
          List.iter
            (fun trace ->
              let correct, _, failed, _ =
                with_workdir (fun workdir ->
                    if trace then run_traced w ~seed ~seconds:1. ~workdir
                    else run_e2e w ~seed ~seconds:1. ~workdir)
              in
              Printf.printf "smoke %s seed=%d trace=%b: %s\n%!" name seed trace
                (if correct then "ok" else Printf.sprintf "FAILED (%d wrong)" failed);
              if not correct then ok := false)
            [ false; true ])
        [ Selftest.default_seed; Selftest.held_out_seed ])
    Work.workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref Selftest.default_seed and seconds = ref 10.
  and trace = ref 0 and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " every workload briefly, answers checked");
      ("--self-test", Arg.String (fun p -> mode := `Self_test p), "FILE check BENCHMARK.json");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S\n%s" a usage) usage;
  match !mode with
  | `Self_test path -> exit (if Selftest.run path then 0 else 1)
  | `Smoke -> smoke ()
  | `Run ->
    if !workload = "" then die "%s" usage;
    if !seconds <= 0. then die "--seconds must be positive";
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
