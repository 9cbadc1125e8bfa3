(* Pure metric derivations of the benchmark: percentile choice, exact
   percentiles, the recovery-time rule, failure accounting and per-op
   ratios. Kept free of the simulator so test_derive.ml can check each on
   hand-built inputs. *)

(* Nearest rank of percentile [p] among [n] samples: [ceil (p/100 * n)],
   with slack for the binary rounding of [p] (99.9/100 * 10000 is not
   exactly 9990 in floating point). *)
let rank p n = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-6))

(* Candidate tail percentiles, highest first. *)
let tail_candidates = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

(* The highest percentile with at least ten samples beyond it, as the
   nearest-rank rule counts them: [n - ceil (p/100 * n) >= 10]. [None]
   when even the median has fewer. *)
let tail_percentile n =
  List.find_opt
    (fun p -> n - rank p n >= 10)
    tail_candidates

(* Nearest-rank percentile of an ascending-sorted array. *)
let percentile_sorted (a : int array) p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Derive.percentile_sorted: no samples";
  a.(max 0 (min (n - 1) (rank p n - 1)))

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> invalid_arg "Derive.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [num / den], 0 when nothing happened ([den = 0]). *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Per-op rate of a counter between two readings. *)
let per_op ~before ~after ~ops = ratio (after - before) ops

(* Share of attempted requests that did not complete: ops that returned
   failure, arrivals shed at a full admission queue, and admitted requests
   stranded on a machine that died. *)
let failed_frac ~attempted ~failed ~shed ~stranded =
  ratio (failed + shed + stranded) attempted

(* Recovery time in the Figure 12 manner, on a completion series of
   [bin_ns]-wide bins starting at [t0_ns]: the pre-crash rate is the mean
   of the [pre_bins] whole bins before the crash; recovery is reached at
   the start of the first bin, after completions first fell below
   [fraction] of that rate, that is back at or above it (the bin-start
   convention of Driver.recovery_time). Returned in ns from the crash;
   [None] if the rate never fell, or never came back. *)
let recovery_ns ~bins ~bin_ns ~t0_ns ~crash_ns ~pre_bins ~fraction =
  let crash_bin = (crash_ns - t0_ns) / bin_ns in
  let first = max 0 (crash_bin - pre_bins) in
  let n = crash_bin - first in
  if n <= 0 then None
  else begin
    let pre = ref 0 in
    for i = first to crash_bin - 1 do
      pre := !pre + bins.(i)
    done;
    let target = fraction *. float_of_int !pre /. float_of_int n in
    let last = Array.length bins - 1 in
    let rec dip i =
      if i > last then None
      else if float_of_int bins.(i) < target then back (i + 1)
      else dip (i + 1)
    and back i =
      if i > last then None
      else if float_of_int bins.(i) >= target then
        Some (t0_ns + (i * bin_ns) - crash_ns)
      else back (i + 1)
    in
    dip crash_bin
  end
