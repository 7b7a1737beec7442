(* Tests of the benchmark's own arithmetic: the tail rule, the seeded
   schedule, and the span reader's ladder and self-time subtraction. *)

open Hostbench

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- tail rule ---------------- *)

(* Oracle: sort, then walk the ladder from the top; the rank of p is the
   first position whose cumulative share reaches p, and a percentile
   qualifies when at least 10 samples sit at later positions. *)
let oracle_tail ?(cap = 100.0) (xs : float array) =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  let rank p =
    let r = ref 1 in
    while float_of_int !r *. 10000.0 < Float.round (p *. 100.0) *. float_of_int n do
      incr r
    done;
    !r
  in
  let qualifying =
    List.filter (fun p -> p <= cap && n - rank p >= 10) (List.rev Arith.tail_ladder)
  in
  let p = match qualifying with p :: _ -> p | [] -> 50.0 in
  (p, s.(max 0 (rank p - 1)))

let test_tail_oracle () =
  Random.init 7;
  for _ = 1 to 300 do
    let n = 1 + Random.int 2500 in
    let xs = Array.init n (fun _ -> Float.round (Random.float 100.0)) in
    let cap = List.nth (100.0 :: Arith.tail_ladder) (Random.int 8) in
    let t = Arith.tail ~cap xs in
    let p, v = oracle_tail ~cap xs in
    check_float (Printf.sprintf "pct n=%d" n) p t.Arith.t_pct;
    check_float (Printf.sprintf "value n=%d" n) v t.Arith.t_value;
    Alcotest.(check bool) "at least 10 beyond, or the median" true
      (t.Arith.t_beyond >= 10 || t.Arith.t_pct = 50.0);
    Alcotest.(check bool) "within the cap" true (t.Arith.t_pct <= Float.max cap 50.0)
  done

let test_tail_boundaries () =
  let pct n = (Arith.tail (Array.init n float_of_int)).Arith.t_pct in
  List.iter
    (fun (n, want) -> check_float (Printf.sprintf "n=%d" n) want (pct n))
    [ (1, 50.0); (19, 50.0); (99, 50.0); (100, 90.0); (199, 90.0); (200, 95.0);
      (399, 95.0); (400, 97.5); (999, 97.5); (1000, 99.0); (10000, 99.9) ];
  let capped n = (Arith.tail ~cap:90.0 (Array.init n float_of_int)).Arith.t_pct in
  check_float "cap 90 over 10000 samples" 90.0 (capped 10000);
  check_float "cap 90 over 99 samples" 50.0 (capped 99);
  let t = Arith.tail (Array.init 1000 (fun i -> float_of_int (999 - i))) in
  check_float "p99 of 0..999 is 989" 989.0 t.Arith.t_value;
  Alcotest.(check int) "exactly 10 beyond" 10 t.Arith.t_beyond

(* ---------------- schedule ---------------- *)

let test_poisson_seeded () =
  let a = Arith.poisson_schedule ~seed:3 ~rate:15.0 ~duration:60.0 in
  let b = Arith.poisson_schedule ~seed:3 ~rate:15.0 ~duration:60.0 in
  let c = Arith.poisson_schedule ~seed:4 ~rate:15.0 ~duration:60.0 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" true (a <> c);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) "inside the window" true (t >= 0.0 && t < 60.0);
      if i > 0 then Alcotest.(check bool) "non-decreasing" true (t >= a.(i - 1)))
    a

let test_poisson_rate () =
  let a = Arith.poisson_schedule ~seed:9 ~rate:15.0 ~duration:2000.0 in
  Alcotest.(check int) "rate x duration arrivals" 30000 (Array.length a);
  (* exponential gaps: mean 1/15 s, and about e^-1 of them longer than it *)
  let gaps = Array.init (Array.length a - 1) (fun i -> a.(i + 1) -. a.(i)) in
  let long = Array.fold_left (fun k g -> if g > 1.0 /. 15.0 then k + 1 else k) 0 gaps in
  let share = float_of_int long /. float_of_int (Array.length gaps) in
  Alcotest.(check bool) (Printf.sprintf "share %.3f near 0.368" share) true
    (Float.abs (share -. exp (-1.0)) < 0.02)

let test_shuffle_permutes () =
  let a = Arith.shuffle (Arith.rng 5) (Array.init 20 Fun.id) in
  let s = Array.copy a in
  Array.sort compare s;
  Alcotest.(check (array int)) "a permutation" (Array.init 20 Fun.id) s;
  Alcotest.(check (array int)) "seeded" a (Arith.shuffle (Arith.rng 5) (Array.init 20 Fun.id))

(* ---------------- spans ---------------- *)

let mk id name ~req ?(parent = -1) t0_ms t1_ms =
  { Spans.id; name; req; parent; t0 = t0_ms /. 1000.0; t1 = t1_ms /. 1000.0 }

(* rungs socket > pool > engine(reset + run), 40 requests, exact
   per-request gaps of 4 ms and 3 ms over request-dependent bases *)
let synthetic ~engine_extra =
  List.concat
    (List.init 40 (fun i ->
         let base = float_of_int (100 * i) and x = float_of_int (i mod 5) in
         [ mk (5 * i) "client.rtt" ~req:i base (base +. 10.0 +. x);
           mk ((5 * i) + 1) "pool.request" ~req:i base (base +. 6.0 +. x);
           mk ((5 * i) + 2) "engine.reset" ~req:i base (base +. 1.0);
           mk ((5 * i) + 3) "engine.run_warm" ~req:i base (base +. 2.0 +. x +. engine_extra) ]))

let rungs =
  [ ("socket", [ "client.rtt" ]); ("pool", [ "pool.request" ]);
    ("engine", [ "engine.reset"; "engine.run_warm" ]) ]

let test_ladder_subtraction () =
  match Spans.ladder (synthetic ~engine_extra:0.0) rungs with
  | [ a; b ] ->
      check_float "server self" 4.0 a.Spans.self_ms;
      check_float "pool self (reset + run summed)" 3.0 b.Spans.self_ms;
      Alcotest.(check int) "paired" 40 a.Spans.pairs;
      Alcotest.(check bool) "sound" true (a.Spans.sound && b.Spans.sound)
  | _ -> Alcotest.fail "two differences expected"

let test_ladder_unsound () =
  (* the engine rung now takes longer than the pool rung above it *)
  match Spans.ladder (synthetic ~engine_extra:5.0) rungs with
  | [ a; b ] ->
      Alcotest.(check bool) "upper still sound" true a.Spans.sound;
      check_float "negative self time" (-2.0) b.Spans.self_ms;
      Alcotest.(check bool) "flagged unsound" false b.Spans.sound
  | _ -> Alcotest.fail "two differences expected"

let test_self_time () =
  let p = mk 0 "client.rtt" ~req:0 0.0 10.0 in
  let spans =
    [ p; mk 1 "wire.encode" ~req:0 ~parent:0 1.0 3.0; mk 2 "wire.decode" ~req:0 ~parent:0 2.0 5.0;
      mk 3 "other" ~req:0 4.0 9.0; mk 4 "late" ~req:0 ~parent:0 9.5 12.0 ]
  in
  (* children cover [1,5] and [9.5,10] of the parent: 4.5 ms *)
  Alcotest.(check (float 1e-6)) "self" 5.5 (Spans.self_ms spans p)

let test_write_read () =
  let r = Spans.recorder () in
  r.Spans.on <- true;
  let v = Spans.time r ~req:3 "outer" (fun id -> ignore (Spans.add r ~parent:id "inner" 1.5 2.25); 42) in
  r.Spans.on <- false;
  ignore (Spans.add r "dropped" 0.0 1.0);
  Alcotest.(check int) "value passes through" 42 v;
  let path = "test_spans.tsv" in
  Spans.write path (Spans.spans r);
  let back = Spans.read path in
  Sys.remove path;
  Alcotest.(check (list string)) "names" [ "inner"; "outer" ]
    (List.sort compare (List.map (fun s -> s.Spans.name) back));
  let inner = List.find (fun s -> s.Spans.name = "inner") back in
  let outer = List.find (fun s -> s.Spans.name = "outer") back in
  Alcotest.(check int) "parent link" outer.Spans.id inner.Spans.parent;
  Alcotest.(check int) "request id" 3 outer.Spans.req;
  check_float "duration" 750.0 (Spans.dur_ms inner)

let () =
  Alcotest.run "hostbench"
    [ ( "tail",
        [ Alcotest.test_case "matches sorted-sample oracle" `Quick test_tail_oracle;
          Alcotest.test_case "ten-beyond boundaries" `Quick test_tail_boundaries ] );
      ( "schedule",
        [ Alcotest.test_case "poisson seeded" `Quick test_poisson_seeded;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes ] );
      ( "spans",
        [ Alcotest.test_case "ladder subtraction" `Quick test_ladder_subtraction;
          Alcotest.test_case "ladder unsound" `Quick test_ladder_unsound;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "write then read" `Quick test_write_read ] ) ]
