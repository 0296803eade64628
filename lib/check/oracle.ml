module Interval = Flames_fuzzy.Interval
module Arith = Flames_fuzzy.Arith
module Piecewise = Flames_fuzzy.Piecewise
module Consistency = Flames_fuzzy.Consistency
module Env = Flames_atms.Env
module Hitting = Flames_atms.Hitting
module Component = Flames_circuit.Component
module Netlist = Flames_circuit.Netlist
module Mna = Flames_sim.Mna
module Diagnose = Flames_core.Diagnose
module Batch = Flames_engine.Batch
module Cache = Flames_engine.Cache

(* {1 Minimal hitting sets} *)

let by_size a b =
  let c = Int.compare (Env.cardinal a) (Env.cardinal b) in
  if c <> 0 then c else Env.compare a b

let brute_hitting conflicts =
  let conflicts = List.sort_uniq Env.compare conflicts in
  if conflicts = [] then [ Env.empty ]
  else if List.exists Env.is_empty conflicts then []
  else begin
    let universe =
      Env.to_list (List.fold_left Env.union Env.empty conflicts)
    in
    let arr = Array.of_list universe in
    let n = Array.length arr in
    if n > 20 then invalid_arg "brute_hitting: universe too large";
    let hits env = List.for_all (fun c -> not (Env.disjoint env c)) conflicts in
    let all = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let env = ref Env.empty in
      for b = 0 to n - 1 do
        if mask land (1 lsl b) <> 0 then env := Env.add arr.(b) !env
      done;
      if hits !env then all := !env :: !all
    done;
    let hitting = !all in
    List.filter
      (fun e ->
        not
          (List.exists
             (fun f -> (not (Env.equal f e)) && Env.subset f e)
             hitting))
      hitting
    |> List.sort by_size
  end

let print_envs envs =
  String.concat " "
    (List.map
       (fun e ->
         "{"
         ^ String.concat "," (List.map string_of_int (Env.to_list e))
         ^ "}")
       envs)

let check_hitting conflicts =
  let expected = brute_hitting conflicts in
  let actual = Hitting.minimal_hitting_sets conflicts in
  if List.length expected = List.length actual
     && List.for_all2 Env.equal expected actual
  then Ok ()
  else
    Error
      (Printf.sprintf
         "hitting-set divergence:\n  brute force: %s\n  Atms.Hitting: %s"
         (print_envs expected) (print_envs actual))

(* {1 Bitset environments vs naive Set.Make(Int)} *)

module IS = Set.Make (Int)

let print_ids l = "{" ^ String.concat "," (List.map string_of_int l) ^ "}"

(* Diff every Env operation against the int-set reference, pairwise over
   the generated lists.  Also checks the interning contract (structural
   round-trips are physically equal) and the signature Bloom property. *)
let check_env lists =
  let pairs =
    List.map (fun ids -> (IS.of_list ids, Env.of_list ids, ids)) lists
  in
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_one (s, e, ids) =
    let* () =
      if IS.elements s = Env.to_list e then Ok ()
      else
        fail "of_list/to_list %s: set %s, env %s" (print_ids ids)
          (print_ids (IS.elements s))
          (print_ids (Env.to_list e))
    in
    let* () =
      if IS.cardinal s = Env.cardinal e then Ok ()
      else
        fail "cardinal %s: set %d, env %d" (print_ids ids) (IS.cardinal s)
          (Env.cardinal e)
    in
    let* () =
      if Env.of_list ids == e then Ok ()
      else fail "interning: of_list %s not physically equal" (print_ids ids)
    in
    let* () =
      let probe = [ 0; 62; 63; 64; 126; 127 ] @ ids in
      if List.for_all (fun i -> IS.mem i s = Env.mem i e) probe then Ok ()
      else fail "mem disagrees on %s" (print_ids ids)
    in
    let* () =
      if IS.min_elt_opt s = Env.choose e then Ok ()
      else fail "choose disagrees on %s" (print_ids ids)
    in
    match IS.max_elt_opt s with
    | None -> Ok ()
    | Some m ->
      let s' = IS.add (m + 1) s and e' = Env.add (m + 1) e in
      if IS.elements s' = Env.to_list e' then Ok ()
      else fail "add %d to %s diverges" (m + 1) (print_ids ids)
  in
  let sign = Stdlib.compare in
  let check_pair (sa, ea, ia) (sb, eb, ib) =
    let binop name sref eref =
      if IS.elements sref = Env.to_list eref then Ok ()
      else
        fail "%s %s %s: set %s, env %s" name (print_ids ia) (print_ids ib)
          (print_ids (IS.elements sref))
          (print_ids (Env.to_list eref))
    in
    let* () = binop "union" (IS.union sa sb) (Env.union ea eb) in
    let* () = binop "inter" (IS.inter sa sb) (Env.inter ea eb) in
    let* () = binop "diff" (IS.diff sa sb) (Env.diff ea eb) in
    let* () =
      if IS.subset sa sb = Env.subset ea eb then Ok ()
      else fail "subset %s %s disagrees" (print_ids ia) (print_ids ib)
    in
    let* () =
      if IS.disjoint sa sb = Env.disjoint ea eb then Ok ()
      else fail "disjoint %s %s disagrees" (print_ids ia) (print_ids ib)
    in
    let* () =
      if sign (IS.compare sa sb) 0 = sign (Env.compare ea eb) 0 then Ok ()
      else
        fail "compare %s %s: set %d, env %d" (print_ids ia) (print_ids ib)
          (IS.compare sa sb) (Env.compare ea eb)
    in
    let* () =
      if IS.equal sa sb = Env.equal ea eb then Ok ()
      else fail "equal %s %s disagrees" (print_ids ia) (print_ids ib)
    in
    let* () =
      if (not (Env.equal ea eb)) || Env.hash ea = Env.hash eb then Ok ()
      else fail "equal envs with different hashes: %s %s" (print_ids ia) (print_ids ib)
    in
    let* () =
      if
        (not (Env.subset ea eb))
        || Env.subset_word (Env.signature ea) (Env.signature eb)
      then Ok ()
      else fail "signature violates the Bloom property: %s %s" (print_ids ia) (print_ids ib)
    in
    (* interning again: the same union built twice is the same block *)
    if Env.union ea eb == Env.union eb ea then Ok ()
    else fail "union %s %s not interned" (print_ids ia) (print_ids ib)
  in
  let rec all_ones = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = check_one x in
      all_ones rest
  in
  let* () = all_ones pairs in
  let rec all_pairs = function
    | [] -> Ok ()
    | x :: rest ->
      let rec against = function
        | [] -> Ok ()
        | y :: ys ->
          let* () = check_pair x y in
          against ys
      in
      let* () = against (x :: rest) in
      all_pairs rest
  in
  all_pairs pairs

(* {1 Envindex dominance vs naive linear scan} *)

(* The naive reference replays the pre-index algorithm: an unsorted list
   scanned linearly, dominance = subset with >= degree. *)
module Naive_index = struct
  type t = (IS.t * float) list ref

  let create () : t = ref []

  let is_dominated (t : t) env degree =
    List.exists (fun (e, d) -> IS.subset e env && d >= degree) !t

  let max_subset_degree (t : t) env =
    List.fold_left
      (fun acc (e, d) -> if IS.subset e env then Float.max acc d else acc)
      0. !t

  let insert (t : t) env degree =
    if is_dominated t env degree then false
    else begin
      t := List.filter (fun (e, d) -> not (IS.subset env e && degree >= d)) !t;
      t := (env, degree) :: !t;
      true
    end

  let contents (t : t) =
    List.sort Stdlib.compare
      (List.map (fun (e, d) -> (IS.elements e, d)) !t)
end

let check_envindex script =
  let naive = Naive_index.create () in
  let idx : unit Flames_atms.Envindex.t = Flames_atms.Envindex.create () in
  let indexed_insert env degree =
    if Flames_atms.Envindex.is_dominated idx env degree then false
    else begin
      ignore (Flames_atms.Envindex.remove_dominated idx env degree);
      Flames_atms.Envindex.add idx env degree ();
      true
    end
  in
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let queries =
    (* every script env plus the whole universe: subset queries from
       below, above and sideways *)
    let universe = List.concat_map fst script in
    List.map fst script @ [ universe; [] ]
  in
  let rec replay = function
    | [] -> Ok ()
    | (ids, degree) :: rest ->
      let s = IS.of_list ids and e = Env.of_list ids in
      let rn = Naive_index.insert naive s degree in
      let ri = indexed_insert e degree in
      let* () =
        if rn = ri then Ok ()
        else
          fail "insert %s@%g: naive %b, indexed %b" (print_ids ids) degree rn
            ri
      in
      let* () =
        if List.length !naive = Flames_atms.Envindex.size idx then Ok ()
        else
          fail "size after %s@%g: naive %d, indexed %d" (print_ids ids) degree
            (List.length !naive)
            (Flames_atms.Envindex.size idx)
      in
      let rec check_queries = function
        | [] -> Ok ()
        | q :: qs ->
          let sq = IS.of_list q and eq = Env.of_list q in
          let dn = Naive_index.max_subset_degree naive sq in
          let di = Flames_atms.Envindex.max_subset_degree idx eq in
          let* () =
            if dn = di then Ok ()
            else
              fail "max_subset_degree %s: naive %g, indexed %g" (print_ids q)
                dn di
          in
          let bn = Naive_index.is_dominated naive sq 0.5 in
          let bi = Flames_atms.Envindex.is_dominated idx eq 0.5 in
          if bn = bi then check_queries qs
          else fail "is_dominated %s@0.5: naive %b, indexed %b" (print_ids q) bn bi
      in
      let* () = check_queries queries in
      replay rest
  in
  let* () = replay script in
  let ci =
    Flames_atms.Envindex.fold
      (fun it acc -> (Env.to_list it.Flames_atms.Envindex.env, it.Flames_atms.Envindex.degree) :: acc)
      idx []
    |> List.sort Stdlib.compare
  in
  if Naive_index.contents naive = ci then Ok ()
  else Error "final contents diverge between naive and indexed stores"

(* {1 Alpha-cut fuzzy arithmetic} *)

let iadd (alo, ahi) (blo, bhi) = (alo +. blo, ahi +. bhi)
let isub (alo, ahi) (blo, bhi) = (alo -. bhi, ahi -. blo)

let imul (alo, ahi) (blo, bhi) =
  let ps = [ alo *. blo; alo *. bhi; ahi *. blo; ahi *. bhi ] in
  (List.fold_left Float.min Float.infinity ps,
   List.fold_left Float.max Float.neg_infinity ps)

let idiv a (blo, bhi) =
  if blo <= 0. && bhi >= 0. then
    raise (Arith.Undefined "naive_div: divisor support contains 0");
  imul a (1. /. bhi, 1. /. blo)

let of_cuts (c1lo, c1hi) (c0lo, c0hi) =
  (* inclusion monotony of interval operations guarantees cut1 inside
     cut0; normalized absorbs the float dust on the boundary *)
  Interval.normalized ~m1:c1lo ~m2:c1hi ~alpha:(c1lo -. c0lo)
    ~beta:(c0hi -. c1hi)

let cutwise op a b =
  of_cuts
    (op (Interval.core a) (Interval.core b))
    (op (Interval.support a) (Interval.support b))

let naive_add = cutwise iadd
let naive_sub = cutwise isub
let naive_mul = cutwise imul
let naive_div = cutwise idiv

let check_arith (a, b) =
  let diff name expected actual =
    if Interval.equal_rel ~rel:1e-9 expected actual then Ok ()
    else
      Error
        (Printf.sprintf "%s divergence: alpha-cut oracle %s, Arith %s" name
           (Interval.to_string expected)
           (Interval.to_string actual))
  in
  let ( let* ) = Result.bind in
  let* () = diff "add" (naive_add a b) (Arith.add a b) in
  let* () = diff "sub" (naive_sub a b) (Arith.sub a b) in
  let* () = diff "mul" (naive_mul a b) (Arith.mul a b) in
  let* () =
    let blo, bhi = Interval.support b in
    if blo <= 0. && bhi >= 0. then Ok ()
    else diff "div" (naive_div a b) (Arith.div a b)
  in
  let* () =
    if Interval.membership (Arith.sub a a) 0. >= 1. -. 1e-9 then Ok ()
    else Error "sub: a - a does not contain 0 with full membership"
  in
  if Interval.equal ~eps:1e-12 (Arith.add a b) (Arith.add b a) then Ok ()
  else Error "add: not commutative"

(* {1 Grid integration of membership functions} *)

let default_samples = 20_000

let grid_integral f lo hi samples =
  if hi <= lo then 0.
  else begin
    let step = (hi -. lo) /. Float.of_int samples in
    let acc = ref 0. in
    for i = 0 to samples - 1 do
      acc := !acc +. f (lo +. ((Float.of_int i +. 0.5) *. step))
    done;
    !acc *. step
  end

let grid_min_area ?(samples = default_samples) a b =
  let alo, ahi = Interval.support a and blo, bhi = Interval.support b in
  let lo = Float.max alo blo and hi = Float.min ahi bhi in
  grid_integral
    (fun x -> Float.min (Interval.membership a x) (Interval.membership b x))
    lo hi samples

let grid_max_area ?(samples = default_samples) a b =
  let alo, ahi = Interval.support a and blo, bhi = Interval.support b in
  let lo = Float.min alo blo and hi = Float.max ahi bhi in
  grid_integral
    (fun x -> Float.max (Interval.membership a x) (Interval.membership b x))
    lo hi samples

let grid_dc ~measured ~nominal =
  if not (Interval.overlap measured nominal) then 0.
  else
    let am = Interval.area measured in
    if am <= 1e-12 then
      Interval.membership nominal (Interval.midpoint measured)
    else Float.max 0. (Float.min 1. (grid_min_area measured nominal /. am))

(* Midpoint-rule error is confined to the cells containing one of the
   (at most ~8 + ~8) breakpoints or crossings, each bounded by the cell
   area: tolerance scales with the step. *)
let grid_tolerance lo hi =
  (32. *. Float.max 0. (hi -. lo) /. Float.of_int default_samples) +. 1e-9

let check_consistency (a, b) =
  let ( let* ) = Result.bind in
  let close name expected actual tol =
    if Float.abs (expected -. actual) <= tol then Ok ()
    else
      Error
        (Printf.sprintf "%s divergence: grid oracle %.6g, exact %.6g (tol %.2g)"
           name expected actual tol)
  in
  let alo, ahi = Interval.support a and blo, bhi = Interval.support b in
  let itol = grid_tolerance (Float.max alo blo) (Float.min ahi bhi) in
  let utol = grid_tolerance (Float.min alo blo) (Float.max ahi bhi) in
  let* () = close "min_area" (grid_min_area a b) (Piecewise.min_area a b) itol in
  let* () = close "max_area" (grid_max_area a b) (Piecewise.max_area a b) utol in
  let check_dc m n =
    let d = Consistency.dc ~measured:m ~nominal:n in
    let* () =
      if d <> d then Error "dc is NaN"
      else if d < 0. || d > 1. then
        Error (Printf.sprintf "dc %.6g outside [0, 1]" d)
      else Ok ()
    in
    close "dc" (grid_dc ~measured:m ~nominal:n) d 0.005
  in
  let* () = check_dc a b in
  check_dc b a

(* {1 Dense nodal analysis} *)

let gauss_jordan a b =
  (* full-pivot Gauss–Jordan, written independently of Sim.Linalg *)
  let n = Array.length b in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    (* find the largest remaining pivot anywhere in the submatrix *)
    let pr = ref k and pc = ref k and best = ref 0. in
    for r = k to n - 1 do
      for c = k to n - 1 do
        let v = Float.abs a.(r).(c) in
        if v > !best then begin
          best := v;
          pr := r;
          pc := c
        end
      done
    done;
    if !best < 1e-12 then failwith "gauss_jordan: singular system";
    let swap_rows i j =
      if i <> j then begin
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t;
        let t = b.(i) in
        b.(i) <- b.(j);
        b.(j) <- t
      end
    in
    let swap_cols i j =
      if i <> j then begin
        for r = 0 to n - 1 do
          let t = a.(r).(i) in
          a.(r).(i) <- a.(r).(j);
          a.(r).(j) <- t
        done;
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      end
    in
    swap_rows k !pr;
    swap_cols k !pc;
    let piv = a.(k).(k) in
    for c = k to n - 1 do
      a.(k).(c) <- a.(k).(c) /. piv
    done;
    b.(k) <- b.(k) /. piv;
    for r = 0 to n - 1 do
      if r <> k && a.(r).(k) <> 0. then begin
        let f = a.(r).(k) in
        for c = k to n - 1 do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(k).(c))
        done;
        b.(r) <- b.(r) -. (f *. b.(k))
      end
    done
  done;
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    x.(perm.(i)) <- b.(i)
  done;
  x

let dense_solve netlist =
  let ground = netlist.Netlist.ground in
  let nodes = List.filter (fun n -> n <> ground) (Netlist.nodes netlist) in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add index n i) nodes;
  let n_nodes = List.length nodes in
  let sources =
    List.filter
      (fun (c : Component.t) ->
        match c.kind with Component.Voltage_source _ -> true | _ -> false)
      netlist.Netlist.components
  in
  let dim = n_nodes + List.length sources in
  let a = Array.make_matrix dim dim 0. and b = Array.make dim 0. in
  let idx node = if node = ground then None else Some (Hashtbl.find index node) in
  let stamp r c v =
    match (r, c) with
    | Some r, Some c -> a.(r).(c) <- a.(r).(c) +. v
    | None, _ | _, None -> ()
  in
  List.iter
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Resistor ohms ->
        let g = 1. /. Interval.centroid ohms in
        let p = idx (Component.node_of c "p")
        and n = idx (Component.node_of c "n") in
        stamp p p g;
        stamp n n g;
        stamp p n (-.g);
        stamp n p (-.g)
      | Component.Voltage_source _ -> ()
      | Component.Capacitor _ | Component.Inductor _ | Component.Diode _
      | Component.Gain_block _ | Component.Bjt _ ->
        invalid_arg "dense_solve: only resistor/source netlists are supported")
    netlist.Netlist.components;
  List.iteri
    (fun k (c : Component.t) ->
      let volts =
        match c.kind with
        | Component.Voltage_source v -> Interval.centroid v
        | _ -> assert false
      in
      let j = n_nodes + k in
      let p = idx (Component.node_of c "p")
      and n = idx (Component.node_of c "n") in
      (match p with
      | Some p ->
        a.(p).(j) <- a.(p).(j) +. 1.;
        a.(j).(p) <- a.(j).(p) +. 1.
      | None -> ());
      (match n with
      | Some n ->
        a.(n).(j) <- a.(n).(j) -. 1.;
        a.(j).(n) <- a.(j).(n) -. 1.
      | None -> ());
      b.(j) <- volts)
    sources;
  let x = gauss_jordan a b in
  List.map (fun n -> (n, x.(Hashtbl.find index n))) nodes

let check_mna netlist =
  let reference = dense_solve netlist in
  let sol = Mna.solve netlist in
  let rec diff = function
    | [] -> Ok ()
    | (node, expected) :: rest ->
      let actual = Mna.voltage sol node in
      let tol = 1e-6 *. Float.max 1. (Float.abs expected) in
      if Float.abs (expected -. actual) <= tol then diff rest
      else
        Error
          (Printf.sprintf
             "MNA divergence at node %s: dense oracle %.9g, Sim.Mna %.9g"
             node expected actual)
  in
  diff reference

(* {1 Batch engine determinism} *)

let result_fingerprint (r : Diagnose.result) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let fi (v : Interval.t) =
    Format.fprintf ppf "[%h %h %h %h]" v.Interval.m1 v.Interval.m2
      v.Interval.alpha v.Interval.beta
  in
  let fopt f = function
    | None -> Format.fprintf ppf "-"
    | Some x -> f x
  in
  Format.fprintf ppf "netlist %s@." r.Diagnose.netlist.Netlist.name;
  List.iter
    (fun (s : Diagnose.symptom) ->
      Format.fprintf ppf "symptom %s measured="
        (Flames_circuit.Quantity.to_string s.Diagnose.quantity);
      fi s.Diagnose.measured;
      Format.fprintf ppf " predicted=";
      fopt fi s.Diagnose.predicted;
      Format.fprintf ppf " verdict=";
      fopt
        (fun (v : Consistency.verdict) ->
          let dir =
            match v.Consistency.direction with
            | Consistency.Within -> "within"
            | Consistency.Low -> "low"
            | Consistency.High -> "high"
          in
          Format.fprintf ppf "%h:%s" v.Consistency.dc dir)
        s.Diagnose.verdict;
      Format.fprintf ppf " signed=";
      fopt (fun d -> Format.fprintf ppf "%h" d) s.Diagnose.signed_dc;
      Format.fprintf ppf "@.")
    r.Diagnose.symptoms;
  (* The reason string is provenance (the cell where the conflict was
     first seen), which legitimately depends on propagation order —
     incremental and batch runs may discover the same nogood at
     different sites — so it is not diagnostic content. *)
  List.iter
    (fun (c : Flames_atms.Candidates.conflict) ->
      Format.fprintf ppf "conflict {%s} degree=%h@."
        (String.concat ","
           (List.map string_of_int (Env.to_list c.Flames_atms.Candidates.env)))
        c.Flames_atms.Candidates.degree)
    r.Diagnose.conflicts;
  List.iter
    (fun (s : Diagnose.suspect) ->
      Format.fprintf ppf "suspect %s suspicion=%h explains=%b"
        s.Diagnose.component s.Diagnose.suspicion s.Diagnose.explains;
      List.iter
        (fun (e : Diagnose.mode_estimate) ->
          Format.fprintf ppf " %s nominal=%h estimated=" e.Diagnose.parameter
            e.Diagnose.nominal;
          fopt (fun v -> Format.fprintf ppf "%h" v) e.Diagnose.estimated;
          Format.fprintf ppf " residual=";
          fopt (fun v -> Format.fprintf ppf "%h" v) e.Diagnose.fit_residual;
          List.iter
            (fun (m, d) ->
              Format.fprintf ppf " %a=%h" Flames_circuit.Fault.pp_mode m d)
            e.Diagnose.modes)
        s.Diagnose.estimates;
      Format.fprintf ppf "@.")
    r.Diagnose.suspects;
  List.iter
    (fun (members, rank) ->
      Format.fprintf ppf "diagnosis {%s} rank=%h@."
        (String.concat "," members)
        rank)
    r.Diagnose.diagnoses;
  List.iter
    (fun (c, d) -> Format.fprintf ppf "single-fault %s@%h@." c d)
    r.Diagnose.single_faults;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec walk i = function
    | [], [] -> "(identical?)"
    | x :: _, [] -> Printf.sprintf "line %d: extra %S" i x
    | [], y :: _ -> Printf.sprintf "line %d: missing %S" i y
    | x :: xs, y :: ys ->
      if String.equal x y then walk (i + 1) (xs, ys)
      else Printf.sprintf "line %d: %S vs %S" i x y
  in
  walk 1 (la, lb)

let check_batch ?(workers = [ 1; 2; 4 ]) jobs =
  let references, _ = Batch.sequential jobs in
  let refs = List.map result_fingerprint references in
  let compare_outcomes phase outcomes =
    let rec walk jobs refs outcomes =
      match (jobs, refs, outcomes) with
      | [], [], [] -> Ok ()
      | (j : Batch.job) :: js, fp :: fps, outcome :: os -> begin
        match (outcome : Batch.outcome) with
        | Error _ ->
          Error
            (Format.asprintf "%s: job %s failed in the pool: %a" phase
               j.Batch.label Batch.pp_outcome outcome)
        | Ok r ->
          let fp' = result_fingerprint r in
          if String.equal fp fp' then walk js fps os
          else
            Error
              (Printf.sprintf
                 "%s: job %s diverges from sequential run: %s" phase
                 j.Batch.label (first_diff fp fp'))
      end
      | _ -> Error (phase ^ ": outcome count mismatch")
    in
    walk jobs refs outcomes
  in
  let ( let* ) = Result.bind in
  let rec cold = function
    | [] -> Ok ()
    | w :: rest ->
      let outcomes, _ = Batch.run ~workers:w jobs in
      let* () = compare_outcomes (Printf.sprintf "cold %d-worker" w) outcomes in
      cold rest
  in
  let* () = cold workers in
  (* warm: a cache pre-filled by a sequential pass, shared by the pool *)
  let cache = Cache.create () in
  let _ = Batch.sequential ~cache jobs in
  let rec warm = function
    | [] -> Ok ()
    | w :: rest ->
      let outcomes, _ = Batch.run ~workers:w ~cache jobs in
      let* () = compare_outcomes (Printf.sprintf "warm %d-worker" w) outcomes in
      warm rest
  in
  warm workers

(* {1 Degraded-diagnosis soundness} *)

let check_degraded (scenario : Gen.scenario) =
  let nominal, _ = Gen.scenario_netlists scenario in
  let observations = Gen.scenario_observations scenario in
  let full = Diagnose.run nominal observations in
  if full.Diagnose.degraded then Error "unbudgeted run reports degraded"
  else
    let n = List.length full.Diagnose.diagnoses in
    if n = 0 then Ok () (* healthy run: nothing to truncate *)
    else begin
      let quota = Int.max 1 (n / 2) in
      let budget =
        Flames_core.Budget.start
          (Flames_core.Budget.spec ~max_candidates:quota ())
      in
      let part = Diagnose.run ~budget nominal observations in
      let got = List.length part.Diagnose.diagnoses in
      (* A candidate-only quota leaves propagation untouched, so the
         conflicts — and hence ranks — are those of the full run; the
         truncated enumeration must return a non-empty sound subset. *)
      if not part.Diagnose.degraded then
        Error "budgeted run not flagged degraded"
      else if not (List.mem Flames_core.Budget.Candidates part.Diagnose.trips)
      then Error "candidate quota trip not recorded"
      else if got = 0 then Error "degraded run returned no candidate"
      else if got > quota then
        Error (Printf.sprintf "quota %d exceeded: %d candidates" quota got)
      else
        let mem d = List.mem d full.Diagnose.diagnoses in
        match List.find_opt (fun d -> not (mem d)) part.Diagnose.diagnoses with
        | Some (names, rank) ->
          Error
            (Printf.sprintf
               "unsound degraded candidate {%s}@%h not in the full ranking"
               (String.concat "," names) rank)
        | None -> Ok ()
    end

(* {1 Propagation engine vs reference interpreter} *)

module Budget = Flames_core.Budget
module Propagate = Flames_core.Propagate
module Schedule = Flames_core.Schedule
module Value = Flames_core.Value
module Nogood = Flames_atms.Nogood

(* [Diagnose.run]'s default prediction settings *)
let floor = 1e-3
let threshold = 0.02
let degree = 0.95

let env_text env = String.concat "," (List.map string_of_int (Env.to_list env))

let origin_text = function
  | Value.Measured -> "measured"
  | Value.Given -> "given"
  | Value.Bound -> "bound"
  | Value.Derived c -> "derived:" ^ c

(* One pass, hex-exact: steps, truncation and the budget trips so far,
   every nogood (environment and degree), then every cell with its
   values in cell order. *)
let pass_text ~trips ~steps ~truncated nogoods cells =
  let b = Buffer.create 4096 in
  Printf.bprintf b "steps=%d truncated=%b trips=%s\n" steps truncated
    (String.concat "," (List.map Budget.trip_label trips));
  List.iter
    (fun (e : Nogood.entry) ->
      Printf.bprintf b "nogood {%s} degree=%h\n" (env_text e.Nogood.env)
        e.Nogood.degree)
    nogoods;
  List.iter
    (fun (q, values) ->
      Printf.bprintf b "cell %s\n" (Flames_circuit.Quantity.to_string q);
      List.iter
        (fun (v : Value.t) ->
          let i = v.Value.interval in
          Printf.bprintf b "  [%h %h %h %h] {%s} degree=%h obs=%b %s {%s}\n"
            i.Interval.m1 i.Interval.m2 i.Interval.alpha i.Interval.beta
            (env_text v.Value.env) v.Value.degree v.Value.observational
            (origin_text v.Value.origin)
            (String.concat "," (Value.History.elements v.Value.history)))
        values)
    cells;
  Buffer.contents b

let production_text trips p =
  pass_text ~trips ~steps:(Propagate.steps_used p)
    ~truncated:(Propagate.truncated p)
    (Nogood.entries (Propagate.nogood_db p))
    (Propagate.cells p)

(* a result's trips without the candidate trip, which only ranking
   records *)
let propagation_trips (r : Diagnose.result) =
  List.filter (( <> ) Budget.Candidates) r.Diagnose.trips

(* The propagation stages of [Diagnose.run] on the reference engine, as
   named texts: the nominal-only prediction pass, the first full pass
   and — when the first pass left observational evidence on a guard
   quantity — the guard second pass with that evidence pinned.  One
   budget armed from [spec] is charged by every pass. *)
let reference_passes ~model ~predictions ~spec observations =
  let budget = Budget.start spec in
  let pass ?(guard_evidence = []) observations =
    let r = Reference.create ~budget model in
    Reference.set_guard_evidence r guard_evidence;
    List.iter (fun (q, v, env) -> Reference.predict r ~degree q v env) predictions;
    List.iter (fun (q, v) -> Reference.observe r q v) observations;
    Reference.run r;
    ( r,
      pass_text ~trips:(Budget.trips budget) ~steps:(Reference.steps_used r)
        ~truncated:(Reference.truncated r)
        (Nogood.entries (Reference.nogood_db r))
        (Reference.cells r) )
  in
  let _, prediction = pass [] in
  let first, first_text = pass observations in
  let guard_evidence =
    List.filter_map
      (fun q ->
        Option.map
          (fun (v : Value.t) -> (q, v.Value.interval))
          (Reference.best_value first ~observational:true q))
      (Diagnose.guard_quantities model)
  in
  [ ("prediction", prediction); ("first", first_text) ]
  @
  if guard_evidence = [] then []
  else [ ("guard second", snd (pass ~guard_evidence observations)) ]

(* The same stages through production, composed as [Diagnose.run]
   composes them, with the analysed result. *)
let production_passes ~schedule ~spec nominal observations =
  let model = Schedule.model schedule in
  let predictions = Schedule.predictions schedule ~floor ~threshold in
  let budget = Budget.start spec in
  let prediction =
    Diagnose.prediction_engine ~budget ~schedule ~model ~degree ~floor
      ~threshold ~simulate:true predictions
  in
  let prediction_text = production_text (Budget.trips budget) prediction in
  let first =
    Diagnose.full_pass ~schedule ~budget ~degree ~model ~predictions
      ~observations ~guard_evidence:[] ()
  in
  let first_text = production_text (Budget.trips budget) first in
  let r =
    Diagnose.analyze ~schedule ~budget ~degree ~model ~predictions ~prediction
      ~first nominal observations
  in
  ( [ ("prediction", prediction_text); ("first", first_text) ]
    @ (if r.Diagnose.engine == first then []
       else
         [ ("guard second", production_text (propagation_trips r) r.Diagnose.engine) ]),
    r )

let rec compare_passes phase production reference =
  match (production, reference) with
  | [], [] -> Ok ()
  | (name, p) :: ps, (_, r) :: rs ->
    if String.equal p r then compare_passes phase ps rs
    else
      Error
        (Printf.sprintf "%s: %s pass diverges from the reference: %s" phase
           name (first_diff r p))
  | _ -> Error (phase ^ ": the guard second pass ran in one engine only")

(* A whole run's final engine against the reference's last pass. *)
let compare_final phase (r : Diagnose.result) reference =
  compare_passes phase
    [ ("final", production_text (propagation_trips r) r.Diagnose.engine) ]
    [ List.nth reference (List.length reference - 1) ]

let compare_runs phase (a : Diagnose.result) (b : Diagnose.result) =
  if a.Diagnose.degraded <> b.Diagnose.degraded then
    Error (phase ^ ": degraded flag diverges")
  else if a.Diagnose.trips <> b.Diagnose.trips then
    Error (phase ^ ": budget trips diverge")
  else
    let fa = result_fingerprint a and fb = result_fingerprint b in
    if String.equal fa fb then Ok ()
    else Error (Printf.sprintf "%s: results diverge: %s" phase (first_diff fa fb))

(* [f ()] and how far [Propagate]'s own step counter moved meanwhile
   (the registry is find-or-create).  The counter is process-global, so
   nothing else may propagate meanwhile; the runner calls oracles one at
   a time. *)
let counting_steps f =
  let steps () =
    Flames_obs.Metrics.counter_value
      (Flames_obs.Metrics.counter "flames_propagate_steps_total")
  in
  let steps0 = steps () in
  let v = f () in
  (v, steps () - steps0)

let check_engine ?config nominal observations =
  let ( let* ) = Result.bind in
  let model = Flames_core.Model.compile ?config nominal in
  let schedule = Schedule.of_model model in
  let predictions = Schedule.predictions schedule ~floor ~threshold in
  let reference spec = reference_passes ~model ~predictions ~spec observations in
  let unlimited = reference Budget.unlimited in
  let full = Diagnose.run ~model nominal observations in
  let* () = compare_final "full" full unlimited in
  (* every stage on the pre-compiled schedule; this first run also
     warms its cached prediction engine *)
  let (staged, r), warm_steps =
    counting_steps (fun () ->
        production_passes ~schedule ~spec:Budget.unlimited nominal observations)
  in
  let* () = compare_passes "schedule-reuse" staged unlimited in
  let* () = compare_runs "schedule-reuse" full r in
  (* A wall-only budget must take the cached engine: its run propagates
     exactly the pass's steps fewer than the warming run. *)
  let pass_steps =
    Propagate.steps_used
      (Diagnose.prediction_engine ~budget:(Budget.fresh ()) ~schedule ~model
         ~degree ~floor ~threshold ~simulate:true predictions)
  in
  let walled, wall_steps =
    counting_steps (fun () ->
        Diagnose.run ~schedule
          ~budget:(Budget.start (Budget.spec ~wall:3600. ()))
          nominal observations)
  in
  let* () = compare_runs "wall-budget reuse" full walled in
  let* () = compare_final "wall-budget reuse" walled unlimited in
  let* () =
    if warm_steps - wall_steps = pass_steps then Ok ()
    else
      Error
        (Printf.sprintf
           "wall-budget reuse: propagated %d steps, warming run %d, pass %d \
            (prediction engine not reused)"
           wall_steps warm_steps pass_steps)
  in
  (* A step or env quota below the pass's own charge must run the pass
     fresh and trip inside it, pass for pass like the reference. *)
  let quota name spec trip =
    if pass_steps < 2 then Ok ()
    else
      let staged, r = production_passes ~schedule ~spec nominal observations in
      let* () = compare_passes name staged (reference spec) in
      let run = Diagnose.run ~schedule ~budget:(Budget.start spec) nominal observations in
      let* () = compare_runs name run r in
      if List.mem trip r.Diagnose.trips then Ok ()
      else Error (name ^ ": quota below the prediction pass did not trip")
  in
  let* () =
    quota "steps-quota reuse" (Budget.spec ~max_steps:(pass_steps / 2) ()) Budget.Steps
  in
  (* every step pops a quantity some env insertion enqueued, so the
     pass inserts at least [pass_steps] envs *)
  let* () =
    quota "envs-quota reuse" (Budget.spec ~max_envs:(pass_steps / 2) ()) Budget.Envs
  in
  (* a candidate quota cuts the ranking short, propagation untouched *)
  match List.length full.Diagnose.diagnoses with
  | 0 -> Ok ()
  | n ->
    let budget =
      Budget.start (Budget.spec ~max_candidates:(Int.max 1 (n / 2)) ())
    in
    let part = Diagnose.run ~model ~budget nominal observations in
    let* () = compare_final "candidate quota" part unlimited in
    if part.Diagnose.degraded && part.Diagnose.trips = [ Budget.Candidates ]
    then Ok ()
    else Error "candidate quota: not degraded by the candidate trip alone"

let check_compiled (scenario : Gen.scenario) =
  let nominal, _ = Gen.scenario_netlists scenario in
  check_engine nominal (Gen.scenario_observations scenario)

(* {1 Incremental sessions vs from-scratch diagnosis} *)

module Session = Flames_session.Session

let check_session (script : Gen.session_script) =
  let nominal, _ = Gen.scenario_netlists script.Gen.base in
  let pool = Gen.session_pool script.Gen.base in
  if pool = [] then Ok ()
  else begin
    let model = Flames_core.Model.compile nominal in
    let session = Session.create ~model nominal in
    (* the naive reference: a plain measurement list, re-diagnosed from
       scratch after every step *)
    let mirror = ref [] in
    let narrow (v : Interval.t) =
      Interval.make ~m1:v.Interval.m1 ~m2:v.Interval.m2
        ~alpha:(v.Interval.alpha /. 2.) ~beta:(v.Interval.beta /. 2.)
    in
    let apply op =
      match op with
      | Gen.S_add i ->
        let q, v = List.nth pool (i mod List.length pool) in
        let m = Session.add_measurement session q v in
        mirror := !mirror @ [ (m.Session.id, q, v) ];
        Ok ()
      | Gen.S_retract n -> begin
        match !mirror with
        | [] -> Ok () (* nothing to retract: no-op by construction *)
        | ms ->
          let id, _, _ = List.nth ms (n mod List.length ms) in
          if Session.retract session ~id then begin
            mirror := List.filter (fun (id', _, _) -> id' <> id) ms;
            Ok ()
          end
          else Error (Printf.sprintf "retract of live id %d refused" id)
      end
      | Gen.S_refine n -> begin
        match !mirror with
        | [] -> Ok ()
        | ms -> (
          let id, _, v = List.nth ms (n mod List.length ms) in
          let v' = narrow v in
          match Session.refine session ~id v' with
          | Some _ ->
            mirror :=
              List.map
                (fun (id', q, w) -> if id' = id then (id', q, v') else (id', q, w))
                ms;
            Ok ()
          | None -> Error (Printf.sprintf "refine of live id %d refused" id))
      end
    in
    let ( let* ) = Result.bind in
    let rec steps i = function
      | [] -> Ok ()
      | op :: rest ->
        let* () = apply op in
        let observations = List.map (fun (_, q, v) -> (q, v)) !mirror in
        let expected =
          result_fingerprint (Diagnose.run ~model nominal observations)
        in
        let got = result_fingerprint (Session.diagnoses session) in
        let* () =
          if String.equal expected got then Ok ()
          else
            Error
              (Printf.sprintf
                 "session diverges from scratch run at step %d (%s): %s" i
                 (Gen.print_session_op op) (first_diff expected got))
        in
        steps (i + 1) rest
    in
    steps 0 script.Gen.ops
  end
