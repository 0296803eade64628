module Batch = Flames_engine.Batch
module Diagnose = Flames_core.Diagnose

type section = { name : string; cases : int; failure : string option }

let pair (a : 'a Gen.t) (b : 'b Gen.t) : ('a * 'b) Gen.t =
  {
    Gen.gen =
      (fun rng ->
        let x = a.Gen.gen rng in
        let y = b.Gen.gen rng in
        (x, y));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.Gen.shrink x)
        @ List.map (fun y' -> (x, y')) (b.Gen.shrink y));
    print = (fun (x, y) -> a.Gen.print x ^ "  |  " ^ b.Gen.print y);
  }

let triple (g : 'a Gen.t) : 'a list Gen.t =
  {
    Gen.gen = (fun rng -> List.init 3 (fun _ -> g.Gen.gen rng));
    shrink =
      (fun xs ->
        (* drop one element, then shrink one element in place *)
        (if List.length xs > 1 then
           List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs
         else [])
        @ List.concat
            (List.mapi
               (fun i x ->
                 List.map
                   (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
                   (g.Gen.shrink x))
               xs));
    print =
      (fun xs -> String.concat "\n--\n" (List.map g.Gen.print xs));
  }

let diagnose_scenario sc =
  let nominal, _faulty = Gen.scenario_netlists sc in
  Diagnose.run nominal (Gen.scenario_observations sc)

let jobs_of_scenarios scs =
  List.mapi
    (fun i sc ->
      let nominal, _ = Gen.scenario_netlists sc in
      Batch.job
        ~label:(Printf.sprintf "job%d" i)
        nominal
        (Gen.scenario_observations sc))
    scs

let run_all ?(seed = 0x464c4d45) ?(log = fun _ -> ()) ~iters () =
  let sections = ref [] in
  let section idx name count g prop =
    let outcome = Gen.run ~seed:(seed + (1000 * idx)) ~count g prop in
    let s =
      match outcome with
      | Gen.Pass n ->
        log (Printf.sprintf "%-22s %d cases ok" name n);
        { name; cases = n; failure = None }
      | Gen.Fail f ->
        let report = Format.asprintf "%a" (Gen.pp_failure g) f in
        log (Printf.sprintf "%-22s FAILED at case %d" name f.Gen.case);
        { name; cases = f.Gen.case; failure = Some report }
    in
    sections := s :: !sections
  in
  let intervals = pair Gen.interval Gen.interval in
  section 0 "hitting-sets" iters Gen.conflict_sets Oracle.check_hitting;
  section 1 "fuzzy-arith" iters intervals Oracle.check_arith;
  section 2 "consistency" iters intervals Oracle.check_consistency;
  section 3 "mna" iters Gen.ladder (fun l ->
      Oracle.check_mna (Gen.netlist_of_ladder l));
  section 4 "atms-audit" iters Gen.atms_spec (fun spec ->
      Invariant.audit_atms (Gen.build_atms spec));
  section 5 "diagnosis-invariants"
    (Int.max 1 (iters / 10))
    Gen.scenario
    (fun sc -> Invariant.audit_result (diagnose_scenario sc));
  section 6 "batch-determinism"
    (Int.max 1 (iters / 200))
    (triple Gen.scenario)
    (fun scs -> Oracle.check_batch (jobs_of_scenarios scs));
  section 7 "env-bitset" iters Gen.id_lists Oracle.check_env;
  section 8 "env-index" iters Gen.weighted_envs Oracle.check_envindex;
  section 9 "session-equivalence"
    (Int.max 1 (iters / 4))
    Gen.session_script Oracle.check_session;
  section 10 "engine-vs-reference"
    (Int.max 1 (iters / 4))
    Gen.scenario Oracle.check_compiled;
  List.rev !sections

let ok sections = List.for_all (fun s -> s.failure = None) sections

let pp ppf sections =
  List.iter
    (fun s ->
      match s.failure with
      | None -> Format.fprintf ppf "%-22s %5d cases  ok@." s.name s.cases
      | Some report ->
        Format.fprintf ppf "%-22s FAILED after %d cases@.%s@." s.name s.cases
          report)
    sections
