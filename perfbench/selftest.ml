(* Checks BENCHMARK.json against the metric catalogue and the workload
   list, so the file the harness reads and the benchmark that writes
   the numbers cannot drift apart. *)

module Json = Flames_serve.Json

let default_seed = 1

(* A seed no tuning of the benchmark looked at. *)
let held_out_seed = 20261016

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let run path =
  let failures = ref 0 in
  let expect cond fmt =
    Printf.ksprintf
      (fun m ->
        if not cond then begin
          incr failures;
          Printf.printf "self-test: %s\n" m
        end)
      fmt
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = Json.parse text in
  let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
  expect
    (List.sort compare keys
    = List.sort compare
        [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ])
    "BENCHMARK.json has exactly the six contract keys";
  let list k = Option.value ~default:[] (Option.bind (Json.mem k j) Json.list_opt) in
  let str k o = Option.value ~default:"" (Option.bind (Json.mem k o) Json.str_opt) in
  let names k = List.map (str "name") (list k) in
  let all_names = names "workloads" @ names "end_to_end" @ names "per_layer" in
  List.iter (fun n -> expect (name_ok n) "name %S matches [A-Za-z0-9_.-]+" n) all_names;
  expect
    (List.length (List.sort_uniq compare all_names) = List.length all_names)
    "every name is used once";
  let workloads = names "workloads" in
  expect
    (List.sort compare workloads = List.sort compare (List.map fst Work.workloads))
    "workloads are exactly the benchmark's";
  List.iter
    (fun w ->
      let why = str "why" w in
      expect
        (why <> "" && String.length why <= 200 && not (String.contains why '\n'))
        "workload %s has a one-line why" (str "name" w))
    (list "workloads");
  let e2e = list "end_to_end" and layer = list "per_layer" in
  expect (List.length e2e >= 1 && List.length e2e <= 16) "1 to 16 end-to-end metrics";
  expect (List.length layer >= 1 && List.length layer <= 128) "1 to 128 per-layer metrics";
  let better (m : Catalogue.metric) =
    match m.Catalogue.better with `Lower -> "lower" | `Higher -> "higher"
  in
  let against catalogue entries kind =
    expect
      (List.map (str "name") entries = List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) catalogue)
      "%s metrics match the catalogue, in order" kind;
    List.iter
      (fun e ->
        let n = str "name" e in
        expect (unit_ok (str "unit" e)) "unit of %s is well-formed" n;
        match List.find_opt (fun (m : Catalogue.metric) -> m.Catalogue.name = n) catalogue with
        | None -> ()
        | Some m ->
          expect (str "unit" e = m.Catalogue.unit_) "unit of %s is %s" n m.Catalogue.unit_;
          expect (str "better" e = better m) "%s is better %s" n (better m))
      entries
  in
  against Catalogue.end_to_end e2e "end-to-end";
  against Catalogue.per_layer layer "per-layer";
  let bound e = Option.value ~default:0. (Option.bind (Json.mem "bound" e) Json.num_opt) in
  List.iter
    (fun e -> expect (bound e > 0. && bound e <= 0.25) "bound of %s is in (0, 0.25]" (str "name" e))
    e2e;
  let setup = List.find_opt (fun e -> str "name" e = "setup_s") e2e in
  expect
    (match setup with
    | Some s ->
      str "unit" s = "s" && str "better" s = "lower"
      && List.for_all (fun e -> bound e <= bound s) e2e
    | None -> false)
    "setup_s is in s, lower is better, with the largest bound";
  List.iter
    (fun (m : Catalogue.metric) ->
      match m.Catalogue.moves with
      | None -> ()
      | Some (target, w) ->
        expect
          (List.exists (fun (e : Catalogue.metric) -> e.Catalogue.name = target) Catalogue.end_to_end
          && List.mem_assoc w Work.workloads)
          "%s names an end-to-end metric and a workload it moves" m.Catalogue.name)
    Catalogue.per_layer;
  if !failures = 0 then Printf.printf "self-test: %s ok (%d metrics)\n" path (List.length e2e + List.length layer);
  !failures = 0
