(** Golden tests for the flags semantics of {!Vm.Arith} — the layer
    every optimization's safety argument ultimately rests on. *)

open Isa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let flag r f = Eflags.is_set (Vm.Arith.flags r) f
let v r = Vm.Arith.value r

let e = Eflags.empty

let test_add_carry () =
  let r = Vm.Arith.add 0xFFFFFFFF 1 e in
  checki "wraps" 0 (v r);
  checkb "CF" true (flag r CF);
  checkb "ZF" true (flag r ZF);
  checkb "OF clear (no signed overflow)" false (flag r OF)

let test_add_signed_overflow () =
  let r = Vm.Arith.add 0x7FFFFFFF 1 e in
  checki "value" 0x80000000 (v r);
  checkb "OF" true (flag r OF);
  checkb "CF clear" false (flag r CF);
  checkb "SF" true (flag r SF)

let test_sub_borrow () =
  let r = Vm.Arith.sub 0 1 e in
  checki "wraps to -1" 0xFFFFFFFF (v r);
  checkb "CF (borrow)" true (flag r CF);
  checkb "SF" true (flag r SF);
  checkb "OF clear" false (flag r OF)

let test_sub_signed_overflow () =
  (* INT_MIN - 1 overflows *)
  let r = Vm.Arith.sub 0x80000000 1 e in
  checki "value" 0x7FFFFFFF (v r);
  checkb "OF" true (flag r OF);
  checkb "CF clear" false (flag r CF)

let test_adc_chain () =
  (* 64-bit add via adc: 0xFFFFFFFF_FFFFFFFF + 1 = 0x1_00000000_00000000 *)
  let lo = Vm.Arith.add 0xFFFFFFFF 1 e in
  let hi = Vm.Arith.adc 0xFFFFFFFF 0 (Vm.Arith.flags lo) in
  checki "lo" 0 (v lo);
  checki "hi" 0 (v hi);
  checkb "final carry out" true (flag hi CF)

let test_inc_dec_preserve_cf () =
  let base = Vm.Arith.add 0xFFFFFFFF 1 e in
  checkb "setup CF" true (flag base CF);
  let r = Vm.Arith.inc 41 (Vm.Arith.flags base) in
  checki "inc" 42 (v r);
  checkb "CF preserved by inc" true (flag r CF);
  let r = Vm.Arith.dec 42 (Vm.Arith.flags base) in
  checki "dec" 41 (v r);
  checkb "CF preserved by dec" true (flag r CF);
  (* but OF/ZF/SF are fully recomputed *)
  let r = Vm.Arith.inc 0x7FFFFFFF (Vm.Arith.flags base) in
  checkb "inc sets OF at INT_MAX" true (flag r OF)

let test_logic_clears_cf_of () =
  let dirty = Vm.Arith.flags (Vm.Arith.add 0x7FFFFFFF 0x7FFFFFFF e) in
  let r = Vm.Arith.land_ 0xF0 0x0F dirty in
  checki "and" 0 (v r);
  checkb "ZF" true (flag r ZF);
  checkb "CF cleared" false (flag r CF);
  checkb "OF cleared" false (flag r OF)

let test_parity () =
  (* PF is even parity of the LOW BYTE only *)
  let r = Vm.Arith.lor_ 0x3 0x0 e in
  checkb "0x03 has even parity" true (flag r PF);
  let r = Vm.Arith.lor_ 0x7 0x0 e in
  checkb "0x07 has odd parity" false (flag r PF);
  let r = Vm.Arith.lor_ 0x10100 0x0 e in
  checkb "only the low byte counts" true (flag r PF)

let test_shifts () =
  let r = Vm.Arith.shl 0x80000000 1 e in
  checki "shl drops msb" 0 (v r);
  checkb "CF = bit shifted out" true (flag r CF);
  let r = Vm.Arith.shr 0x3 1 e in
  checki "shr" 1 (v r);
  checkb "CF = low bit out" true (flag r CF);
  let r = Vm.Arith.sar 0x80000000 4 e in
  checki "sar sign-extends" 0xF8000000 (v r);
  (* count 0 leaves flags untouched *)
  let dirty = Vm.Arith.flags (Vm.Arith.add 0xFFFFFFFF 1 e) in
  let r = Vm.Arith.shl 5 0 dirty in
  checkb "count-0 keeps CF" true (flag r CF);
  (* counts are masked to 5 bits like IA-32 *)
  let r = Vm.Arith.shl 1 32 e in
  checki "count 32 = count 0" 1 (v r)

let test_neg () =
  let r = Vm.Arith.neg 5 e in
  checki "neg" 0xFFFFFFFB (v r);
  checkb "CF set for nonzero" true (flag r CF);
  let r = Vm.Arith.neg 0 e in
  checkb "CF clear for zero" false (flag r CF);
  let r = Vm.Arith.neg 0x80000000 e in
  checki "INT_MIN unchanged" 0x80000000 (v r);
  checkb "OF set" true (flag r OF)

let test_imul () =
  let r = Vm.Arith.imul 0x10000 0x10000 e in
  checki "wraps" 0 (v r);
  checkb "CF=OF on overflow" true (flag r CF && flag r OF);
  let r = Vm.Arith.imul (Vm.Arith.of_signed (-3)) 7 e in
  checki "signed" (Vm.Arith.of_signed (-21)) (v r);
  checkb "no overflow" false (flag r CF)

let test_idiv () =
  let eax = Vm.Arith.of_signed (-17) in
  let q = v (Vm.Arith.idiv ~eax 5 e) and r = Vm.Arith.irem ~eax 5 in
  checki "quotient truncates toward zero" (Vm.Arith.of_signed (-3)) q;
  checki "remainder keeps dividend sign" (Vm.Arith.of_signed (-2)) r;
  checkb "div by zero raises" true
    (match Vm.Arith.idiv ~eax:1 0 e with
     | exception Vm.Arith.Division_by_zero -> true
     | _ -> false)

let test_fcmp () =
  let fl = Vm.Arith.fcmp 1.0 2.0 e in
  checkb "less sets CF" true (Eflags.is_set fl CF);
  checkb "less clears ZF" false (Eflags.is_set fl ZF);
  let fl = Vm.Arith.fcmp 2.0 2.0 e in
  checkb "equal sets ZF" true (Eflags.is_set fl ZF);
  checkb "equal clears CF" false (Eflags.is_set fl CF);
  let fl = Vm.Arith.fcmp 3.0 2.0 e in
  checkb "greater clears both" true
    (not (Eflags.is_set fl CF) && not (Eflags.is_set fl ZF));
  let fl = Vm.Arith.fcmp Float.nan 2.0 e in
  checkb "unordered sets ZF+PF+CF" true
    (Eflags.is_set fl ZF && Eflags.is_set fl PF && Eflags.is_set fl CF)

(* property: the interpreter only writes flags its opcode metadata
   declares (metadata soundness, DESIGN.md invariant 4) *)
let prop_flags_within_declared =
  QCheck2.Test.make ~name:"arith writes only declared flags" ~count:2000
    QCheck2.Gen.(
      triple (int_range 0 5)
        (int_range (-0x8000_0000) 0x7FFF_FFFF)
        (int_range (-0x8000_0000) 0x7FFF_FFFF))
    (fun (which, a, b) ->
      let a = Vm.Arith.of_signed a and b = Vm.Arith.of_signed b in
      (* random starting flags *)
      let fl0 = (a * 31 + b) land Eflags.all_mask in
      let op, mask =
        match which with
        | 0 -> ((fun () -> Vm.Arith.flags (Vm.Arith.add a b fl0)), Opcode.eflags Opcode.Add)
        | 1 -> ((fun () -> Vm.Arith.flags (Vm.Arith.sub a b fl0)), Opcode.eflags Opcode.Sub)
        | 2 -> ((fun () -> Vm.Arith.flags (Vm.Arith.inc a fl0)), Opcode.eflags Opcode.Inc)
        | 3 -> ((fun () -> Vm.Arith.flags (Vm.Arith.land_ a b fl0)), Opcode.eflags Opcode.And)
        | 4 -> ((fun () -> Vm.Arith.flags (Vm.Arith.imul a b fl0)), Opcode.eflags Opcode.Imul)
        | _ -> ((fun () -> Vm.Arith.flags (Vm.Arith.neg a fl0)), Opcode.eflags Opcode.Neg)
      in
      let fl1 = op () in
      let changed = fl0 lxor fl1 in
      changed land lnot (Eflags.write_mask mask) = 0)

let () =
  Alcotest.run "arith"
    [
      ( "integer flags",
        [
          Alcotest.test_case "add carry" `Quick test_add_carry;
          Alcotest.test_case "add signed overflow" `Quick test_add_signed_overflow;
          Alcotest.test_case "sub borrow" `Quick test_sub_borrow;
          Alcotest.test_case "sub signed overflow" `Quick test_sub_signed_overflow;
          Alcotest.test_case "adc chain" `Quick test_adc_chain;
          Alcotest.test_case "inc/dec preserve CF" `Quick test_inc_dec_preserve_cf;
          Alcotest.test_case "logic clears CF/OF" `Quick test_logic_clears_cf_of;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "neg" `Quick test_neg;
          Alcotest.test_case "imul" `Quick test_imul;
          Alcotest.test_case "idiv" `Quick test_idiv;
        ] );
      ("fp", [ Alcotest.test_case "fcmp" `Quick test_fcmp ]);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_flags_within_declared ] );
    ]
