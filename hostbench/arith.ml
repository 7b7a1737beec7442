(** The benchmark's own arithmetic: seeded randomness, the open-loop
    arrival schedule, percentiles and the tail rule.  Kept apart from
    the driver so the tests can check it without running a workload. *)

(* ------------------------------------------------------------------ *)
(* Seeded randomness                                                  *)
(* ------------------------------------------------------------------ *)

(* 48-bit LCG (the drand48 multiplier): every schedule is a pure
   function of the seed, on any host and OCaml version. *)
type rng = { mutable s : int }

let lcg_mask = (1 lsl 48) - 1
let rng seed = { s = (seed lxor 0x5DEECE66D) land lcg_mask }

let next (r : rng) : int =
  r.s <- ((25214903917 * r.s) + 11) land lcg_mask;
  r.s

(** Uniform in (0, 1]: never 0, so [log] stays finite. *)
let unit (r : rng) : float =
  (float_of_int (next r lsr 16) +. 1.0) /. float_of_int (1 lsl 32)

(** Uniform in [0, n). *)
let below (r : rng) (n : int) : int = (next r lsr 16) mod n

(** Fisher-Yates shuffle of a copy. *)
let shuffle (r : rng) (a : 'a array) : 'a array =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Due times (seconds from the start) of a Poisson arrival process at
    [rate] per second over [duration], conditioned on its expected count
    [n = round (rate * duration)]: given n arrivals, a Poisson process
    places them as n sorted uniforms, drawn here as normalized sums of
    n+1 exponential gaps.  Fixing the count keeps the offered load equal
    across seeds; the seed still decides where arrivals cluster. *)
let poisson_schedule ~seed ~rate ~duration : float array =
  let r = rng seed in
  let n = int_of_float (Float.round (rate *. duration)) in
  let gaps = Array.init (n + 1) (fun _ -> -.log (unit r)) in
  let total = Array.fold_left ( +. ) 0.0 gaps in
  let acc = ref 0.0 in
  Array.init n (fun i ->
      acc := !acc +. gaps.(i);
      duration *. !acc /. total)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted (xs : float array) : float array =
  let s = Array.copy xs in
  Array.sort compare s;
  s

(* 1-based nearest rank of the [p]-th percentile of [n] samples,
   ceil(p/100 * n), in integer hundredths of a percent so that, say,
   p99 of 1000 samples is rank 990 and not 991 through rounding. *)
let rank ~n p =
  let bp = int_of_float (Float.round (p *. 100.0)) in
  ((bp * n) + 9999) / 10000

(** Nearest-rank percentile ([p] in 0..100) of an already sorted array:
    the smallest sample with at least [p]% of samples at or below it. *)
let nearest_rank (s : float array) (p : float) : float =
  let n = Array.length s in
  if n = 0 then invalid_arg "nearest_rank: no samples";
  s.(max 0 (min (n - 1) (rank ~n p - 1)))

let median (xs : float array) : float = nearest_rank (sorted xs) 50.0

let mean (xs : float array) : float =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let geomean (xs : float array) : float =
  exp (mean (Array.map log xs))

(** Percentiles the tail rule may pick, highest last. *)
let tail_ladder = [ 50.0; 90.0; 95.0; 97.5; 99.0; 99.9; 99.99 ]

(** Samples ranked strictly above the nearest-rank [p]-th percentile. *)
let beyond ~n p = n - rank ~n p

type tail = { t_pct : float; t_value : float; t_beyond : int; t_samples : int }

(** The highest percentile of {!tail_ladder}, up to [cap], with at
    least 10 samples ranked beyond it; the median when no percentile
    has (fewer than 20 samples).  [cap] keeps the tail off a boundary
    between clusters of a multimodal latency distribution, where a
    percentile jumps from run to run. *)
let tail ?(cap = 100.0) (xs : float array) : tail =
  let s = sorted xs in
  let n = Array.length s in
  let p =
    List.fold_left
      (fun best p -> if p <= cap && beyond ~n p >= 10 then p else best)
      50.0 tail_ladder
  in
  { t_pct = p; t_value = nearest_rank s p; t_beyond = beyond ~n p; t_samples = n }
