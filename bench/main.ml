(* The full benchmark harness (DESIGN.md experiment index):

   1. regenerates every table and figure of the paper's evaluation —
      fig 2 (crisp vs fuzzy propagation), fig 4 (coincidence cases),
      fig 5 (diode example nogoods), fig 6 (bias point), fig 7 (the five
      defect scenarios), the section-8 best-test comparison, the
      section-7 learning curve and the A1 soft-fault ablation;
   2. times the building blocks and end-to-end pipelines with Bechamel
      (one Test.make per table/figure plus the A2 scaling series).

   Absolute timings depend on the host; the paper ran on a Sun SPARC 20,
   so only the relative shape is meaningful. *)

open Bechamel
open Toolkit

let ppf = Format.std_formatter

(* {1 Paper tables} *)

let regenerate_tables () =
  Format.fprintf ppf "================ paper tables ================@.";
  Format.fprintf ppf "@.";
  Flames_experiments.Fig2.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Fig4.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Fig5.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Fig7.(print_bias ppf (bias_point ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Fig7.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Strategy_demo.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Learning_demo.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Ablation.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Dynamic_demo.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Explosion.(print ppf (run ()));
  Format.fprintf ppf "@.";
  Flames_experiments.Rules_demo.(print ppf (run ()));
  Format.fprintf ppf "@."

(* {1 Timing benches} *)

module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module F = Flames_circuit.Fault
module L = Flames_circuit.Library

let config = { Flames_core.Model.default_config with trusted = [ "vcc" ] }
let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 }

let fig7_observations =
  lazy
    (let nominal = L.three_stage_amplifier ~tolerance:0.005 () in
     let faulty = F.inject nominal (F.short "r2" ~parameter:"R") in
     let sol = Flames_sim.Mna.solve faulty in
     ( nominal,
       Flames_sim.Measure.probe_all ~instrument sol
         (List.map Q.voltage [ "vs"; "n2"; "v1" ]) ))

let fig5_observations =
  [
    (Q.drop "d1", I.crisp 0.2);
    (Q.drop "r1", I.crisp 1.05);
    (Q.drop "r2", I.crisp 2.0);
  ]

(* fuzzy-arithmetic kernels (fig 2's substrate) *)
let bench_fuzzy_ops =
  let a = I.number 3. ~spread:0.05 and b = I.number 2. ~spread:0.05 in
  [
    Test.make ~name:"arith:mul" (Staged.stage (fun () -> Flames_fuzzy.Arith.mul a b));
    Test.make ~name:"arith:div" (Staged.stage (fun () -> Flames_fuzzy.Arith.div a b));
    Test.make ~name:"consistency:dc"
      (Staged.stage (fun () ->
           Flames_fuzzy.Consistency.dc ~measured:a ~nominal:b));
    Test.make ~name:"entropy:5-terms"
      (Staged.stage
         (let fs = List.init 5 (fun i -> I.crisp (0.1 +. (0.15 *. float_of_int i))) in
          fun () -> Flames_fuzzy.Entropy.entropy fs));
  ]

let bench_fig2 =
  [
    Test.make ~name:"fig2:propagation"
      (Staged.stage (fun () -> Flames_experiments.Fig2.run ()));
  ]

let bench_fig5 =
  [
    Test.make ~name:"fig5:fuzzy-diagnosis"
      (Staged.stage (fun () ->
           Flames_core.Diagnose.run
             (L.diode_resistor ())
             fig5_observations));
    Test.make ~name:"fig5:crisp-baseline"
      (Staged.stage (fun () ->
           Flames_baseline.Crisp.run (L.diode_resistor ()) fig5_observations));
  ]

let bench_fig7 =
  [
    Test.make ~name:"fig6:mna-solve"
      (Staged.stage
         (let net = L.three_stage_amplifier () in
          fun () -> Flames_sim.Mna.solve net));
    Test.make ~name:"fig7:diagnosis(R2-short)"
      (Staged.stage (fun () ->
           let nominal, obs = Lazy.force fig7_observations in
           Flames_core.Diagnose.run ~config nominal obs));
  ]

let bench_strategy =
  [
    Test.make ~name:"best-test:fuzzy-ranking"
      (Staged.stage
         (let nominal, obs = Lazy.force fig7_observations in
          let r = Flames_core.Diagnose.run ~config nominal obs in
          let estimations = Flames_strategy.Estimation.of_diagnosis r in
          let tests = Flames_strategy.Best_test.test_points_of_netlist nominal in
          fun () -> Flames_strategy.Best_test.rank estimations tests));
    Test.make ~name:"best-test:probabilistic"
      (Staged.stage
         (let nominal, obs = Lazy.force fig7_observations in
          let r = Flames_core.Diagnose.run ~config nominal obs in
          let state = Flames_baseline.Probabilistic.of_diagnosis r in
          let tests =
            Flames_strategy.Best_test.test_points_of_netlist nominal
            |> List.map (fun (t : Flames_strategy.Best_test.test_point) ->
                   ( t.Flames_strategy.Best_test.quantity,
                     t.Flames_strategy.Best_test.cost,
                     t.Flames_strategy.Best_test.influencers ))
          in
          fun () -> Flames_baseline.Probabilistic.rank state tests));
  ]

(* A2 scaling: diagnosis cost vs circuit size (amplifier chains) *)
let bench_scaling =
  List.map
    (fun k ->
      Test.make
        ~name:(Printf.sprintf "scaling:chain-%02d" k)
        (Staged.stage
           (let gains = List.init k (fun i -> 1. +. float_of_int (i mod 3)) in
            let nominal = L.amplifier_chain ~gains () in
            let faulty = F.inject nominal (F.shifted "amp2" ~parameter:"gain" 10.) in
            let sol = Flames_sim.Mna.solve faulty in
            let obs =
              Flames_sim.Measure.probe_all ~instrument sol
                (List.map Q.voltage (L.chain_nodes k))
            in
            fun () -> Flames_core.Diagnose.run nominal obs)))
    [ 2; 4; 8; 16 ]

(* ATMS kernels: hitting sets over growing conflict families *)
let bench_atms =
  List.map
    (fun n ->
      Test.make
        ~name:(Printf.sprintf "atms:hitting-sets-%02d" n)
        (Staged.stage
           (let conflicts =
              List.init n (fun i ->
                  Flames_atms.Env.of_list [ i; i + 1; i + 2 ])
            in
            fun () -> Flames_atms.Hitting.minimal_hitting_sets conflicts)))
    [ 4; 8; 12 ]

(* dynamic mode: AC solve and frequency-domain diagnosis *)
let bench_dynamic =
  let corner = 1. /. (2. *. Float.pi *. 10e3 *. 10e-9) in
  [
    Test.make ~name:"dynamic:ac-solve"
      (Staged.stage
         (let rc = L.rc_lowpass () in
          fun () -> Flames_sim.Ac.solve rc corner));
    Test.make ~name:"dynamic:diagnosis(RC drift)"
      (Staged.stage
         (let rc = L.rc_lowpass () in
          let faulty = F.inject rc (F.shifted "c1" ~parameter:"C" 15e-9) in
          let obs =
            List.map
              (fun frequency ->
                Flames_core.Dynamic.observe ~source:"vin" faulty ~node:"out"
                  ~frequency)
              [ corner /. 8.; corner; corner *. 5. ]
          in
          fun () -> Flames_core.Dynamic.run ~trusted:[ "vin" ] rc obs));
  ]

(* batch engine: pool throughput at 1/2/4 workers and the model cache.
   Pools are created once and reused across bechamel iterations; the
   divider jobs are deliberately cheap so the measurement is dominated by
   the engine's dispatch/cache machinery, not by one long diagnosis. *)
module Engine = Flames_engine

let engine_jobs =
  lazy
    (List.init 12 (fun i ->
         let nominal = L.voltage_divider () in
         let faulty = F.inject nominal (F.shifted "r2" ~parameter:"R" 6.8e3) in
         let sol = Flames_sim.Mna.solve faulty in
         let obs =
           Flames_sim.Measure.probe_all ~instrument sol [ Q.voltage "out" ]
         in
         Engine.Batch.job ~label:(Printf.sprintf "divider-%02d" i) nominal obs))

let bench_engine =
  let pool_of = Hashtbl.create 4 in
  let pool workers =
    match Hashtbl.find_opt pool_of workers with
    | Some p -> p
    | None ->
      let p = Engine.Pool.create ~workers () in
      Hashtbl.add pool_of workers p;
      p
  in
  List.map
    (fun workers ->
      Test.make
        ~name:(Printf.sprintf "engine:batch-divider-w%d" workers)
        (Staged.stage (fun () ->
             Engine.Batch.run_in ~pool:(pool workers)
               (Lazy.force engine_jobs))))
    [ 1; 2; 4 ]
  @ [
      Test.make ~name:"engine:cache-cold"
        (Staged.stage
           (let net = L.three_stage_amplifier () in
            fun () ->
              (* fresh cache: every call pays the full compilation *)
              Engine.Cache.compile (Engine.Cache.create ()) net));
      Test.make ~name:"engine:cache-warm"
        (Staged.stage
           (let net = L.three_stage_amplifier () in
            let cache = Engine.Cache.create () in
            ignore (Engine.Cache.compile cache net);
            fun () -> Engine.Cache.compile cache net));
    ]

let benchmarks =
  bench_fuzzy_ops @ bench_fig2 @ bench_fig5 @ bench_fig7 @ bench_strategy
  @ bench_dynamic @ bench_scaling @ bench_atms @ bench_engine

let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"flames" benchmarks)
  in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]) instances results in
  results

let report results =
  let open Notty_unix in
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let () =
    List.iter
      (fun instance ->
        Bechamel_notty.Unit.add instance (Measure.unit instance))
      Instance.[ monotonic_clock ]
  in
  let img = Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results in
  eol img |> output_image

(* {1 BENCH_engine.json}

   Wall-clock throughput of the A2 scaling series (amplifier chains)
   through the batch engine, at 1/2/4 workers, cold and warm model
   cache.  Hand-rolled JSON: one object per (workers, cache) cell.
   Speedup from extra workers requires actual cores — the [cores] field
   records what the host offered. *)

let engine_json_path = "BENCH_engine.json"

let engine_series_sizes = [ 2; 4; 8; 16 ]

let emit_engine_json () =
  let jobs = Flames_experiments.Explosion.jobs ~sizes:engine_series_sizes () in
  let cell ~workers ~label ~cache =
    (* best of three: the series is tens of milliseconds, scheduler noise
       would otherwise dominate the w1/w4 comparison *)
    let best (a : Engine.Stats.t) (b : Engine.Stats.t) =
      if a.Engine.Stats.wall_time <= b.Engine.Stats.wall_time then a else b
    in
    let run () =
      let outcomes, stats = Engine.Batch.run ~workers ~cache jobs in
      assert (List.for_all Result.is_ok outcomes);
      stats
    in
    let first = run () in
    let stats = best (best first (run ())) (run ()) in
    (* hits/misses of the first repetition: the later ones always hit *)
    let stats =
      { stats with
        Engine.Stats.cache_hits = first.Engine.Stats.cache_hits;
        cache_misses = first.Engine.Stats.cache_misses }
    in
    (* one schema for engine stats everywhere: these rows and the CLI's
       --stats-json both come from [Stats.to_json_fields] *)
    Format.asprintf "    { \"cache\": %S, %a }" label
      Engine.Stats.to_json_fields stats
  in
  let cells =
    List.concat_map
      (fun workers ->
        let cache = Engine.Cache.create () in
        let cold = cell ~workers ~label:"cold" ~cache in
        let warm = cell ~workers ~label:"warm" ~cache in
        [ cold; warm ])
      [ 1; 2; 4 ]
  in
  let oc = open_out engine_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"series\": \"A2-scaling-amplifier-chains\",\n\
    \  \"sizes\": [%s],\n\
    \  \"jobs\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"runs\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (String.concat ", " (List.map string_of_int engine_series_sizes))
    (List.length jobs)
    (Domain.recommended_domain_count ())
    (String.concat ",\n" cells);
  close_out oc;
  Format.fprintf ppf "wrote %s@." engine_json_path

let () =
  let flag f = Array.exists (fun a -> a = f) Sys.argv in
  let engine_json_only = flag "--engine-json-only" in
  let atms_json_only = flag "--atms-json-only" in
  let session_json_only = flag "--session-json-only" in
  let obs_json_only = flag "--obs-json-only" in
  let store_json_only = flag "--store-json-only" in
  let smoke = flag "--atms-smoke" in
  if engine_json_only then emit_engine_json ()
  else if atms_json_only then Atms_series.emit ~smoke ppf
  else if session_json_only then Session_series.emit ppf
  else if obs_json_only then Obs_series.emit ppf
  else if store_json_only then Store_series.emit ppf
  else begin
    regenerate_tables ();
    Format.fprintf ppf "================ timing benches ================@.";
    Format.pp_print_flush ppf ();
    let results = run_benchmarks () in
    report results;
    emit_engine_json ();
    Atms_series.emit ~smoke ppf;
    Session_series.emit ppf;
    Obs_series.emit ppf;
    Store_series.emit ppf
  end
