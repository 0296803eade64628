(* Small measurement helpers: clocks, quantiles, process resources. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank quantile of unsorted samples; [nan] when empty. *)
let quantile q samples =
  match samples with
  | [] -> Float.nan
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

let ratio num den = if den = 0. then 0. else num /. den

(* Process CPU, every thread and domain included (getrusage). *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) in MiB; the major heap's top size when
   /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let cores () = Domain.recommended_domain_count ()

(* Recursive removal of the benchmark's scratch directories. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
