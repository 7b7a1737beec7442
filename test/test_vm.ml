(** Tests for the VM substrate: interpreter semantics, flags, memory,
    scheduler, cost model, assembler round trips. *)

open Asm.Dsl

let checkb = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* Run a program natively on a fresh machine; return (output, machine). *)
let run_native ?(family = Vm.Cost.Pentium4) ?(input = []) prog =
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create ~family () in
  Vm.Machine.set_input m input;
  let _t = Asm.Image.load m image in
  let outcome = Vm.Sched.run ~emulate:false m in
  (Vm.Machine.output m, m, outcome)

let expect_output ?input name prog expected =
  let out, _, outcome = run_native ?input prog in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "%s: stopped with %s" name (Vm.Interp.stop_to_string s));
  check_ilist name expected out

(* ------------------------------------------------------------------ *)
(* Basic arithmetic programs                                          *)
(* ------------------------------------------------------------------ *)

let test_mov_out () =
  expect_output "mov/out"
    (program ~name:"t" ~text:[ label "main"; mov eax (i 42); out eax; hlt ] ())
    [ 42 ]

let test_loop_sum () =
  (* sum 1..10 = 55 *)
  expect_output "loop sum"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 0);
           mov ecx (i 1);
           label "loop";
           add eax ecx;
           inc ecx;
           cmp ecx (i 10);
           j le "loop";
           out eax;
           hlt;
         ]
       ())
    [ 55 ]

let test_signed_arith () =
  expect_output "neg/idiv"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-17));
           mov ebx (i 5);
           idiv ebx;       (* eax = -3, edx = -2 *)
           out eax;
           out edx;
           neg eax;        (* 3 *)
           out eax;
           hlt;
         ]
       ())
    [ -3 land 0xFFFFFFFF; -2 land 0xFFFFFFFF; 3 ]

let test_flags_cf_of () =
  (* 0xFFFFFFFF + 1 sets CF and ZF, not OF *)
  expect_output "carry chain"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-1));
           add eax (i 1);      (* CF=1 ZF=1 *)
           mov ebx (i 0);
           adc ebx (i 0);      (* ebx = 0 + 0 + CF = 1 *)
           out ebx;
           (* signed overflow: 0x7FFFFFFF + 1 -> OF *)
           mov eax (i 0x7FFFFFFF);
           add eax (i 1);
           mov ecx (i 0);
           j no "no_of";
           mov ecx (i 1);
           label "no_of";
           out ecx;
           hlt;
         ]
       ())
    [ 1; 1 ]

let test_inc_preserves_cf () =
  expect_output "inc preserves CF"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i (-1));
           add eax (i 1);   (* CF=1 *)
           inc eax;         (* must not clobber CF *)
           mov ebx (i 0);
           adc ebx (i 0);   (* 1 if CF still set *)
           out ebx;
           hlt;
         ]
       ())
    [ 1 ]

let test_shifts () =
  expect_output "shifts"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 1);
           shl eax (i 4);
           out eax;              (* 16 *)
           mov eax (i (-32));
           sar eax (i 2);
           out eax;              (* -8 *)
           mov eax (i (-32));
           shr eax (i 28);
           out eax;              (* 0xF *)
           mov ecx (i 3);
           mov eax (i 2);
           shl eax ecx;
           out eax;              (* 16 *)
           hlt;
         ]
       ())
    [ 16; -8 land 0xFFFFFFFF; 0xF; 16 ]

let test_memory_ops () =
  expect_output "memory load/store"
    (program ~name:"t"
       ~text:
         [
           label "main";
           li ebx "buf";
           mov (mb ebx) (i 0x11223344);
           movzx8 eax (mb ebx);
           out eax;                       (* 0x44 *)
           movzx16 eax (mb ebx);
           out eax;                       (* 0x3344 *)
           mov (mb ebx ~disp:4) (i 7);
           mov eax (mb ebx ~disp:4);
           out eax;                       (* 7 *)
           (* scaled indexing: buf[2*4] *)
           mov ecx (i 2);
           mov (m ~base:ebx ~index:(ecx, 4) ()) (i 99);
           mov eax (mb ebx ~disp:8);
           out eax;                       (* 99 *)
           hlt;
         ]
       ~data:[ label "buf"; space 64 ]
       ())
    [ 0x44; 0x3344; 7; 99 ]

let test_stack_and_calls () =
  expect_output "call/ret"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov eax (i 5);
           call "double";
           out eax;          (* 10 *)
           call "double";
           out eax;          (* 20 *)
           hlt;
           label "double";
           add eax eax;
           ret;
         ]
       ())
    [ 10; 20 ]

let test_indirect_branches () =
  expect_output "indirect jmp through table"
    (program ~name:"t"
       ~text:
         [
           label "main";
           mov esi (i 0);
           label "loop";
           li ebx "table";
           mov eax (m ~base:ebx ~index:(esi, 4) ());
           jmp_ind eax;
           label "case0";
           out (i 100);
           inc esi;
           jmp "loop";
           label "case1";
           out (i 200);
           inc esi;
           jmp "loop";
           label "case2";
           hlt;
         ]
       ~data:[ label "table"; word32_lbl [ "case0"; "case1"; "case2" ] ]
       ())
    [ 100; 200 ]

let test_fp () =
  expect_output "fp arithmetic"
    (program ~name:"t"
       ~text:
         [
           label "main";
           li ebx "vals";
           fld f0 (mb ebx);             (* 2.5 *)
           fld f1 (mb ebx ~disp:8);     (* 4.0 *)
           fmul f0 (fr f1);             (* 10.0 *)
           fsqrt f1;                    (* 2.0 *)
           fadd f0 (fr f1);             (* 12.0 *)
           cvtfi eax f0;
           out eax;                     (* 12 *)
           fcmp f0 (fr f1);
           j nbe "bigger";              (* 12 > 2 unsigned-style compare *)
           out (i 0);
           hlt;
           label "bigger";
           out (i 1);
           hlt;
         ]
       ~data:[ label "vals"; float64 [ 2.5; 4.0 ] ]
       ())
    [ 12; 1 ]

let test_in_port () =
  expect_output "input port" ~input:[ 3; 4 ]
    (program ~name:"t"
       ~text:
         [
           label "main";
           in_ eax;
           in_ ebx;
           imul eax ebx;
           out eax;
           hlt;
         ]
       ())
    [ 12 ]

let test_fault_oob () =
  let _, _, outcome =
    run_native
      (program ~name:"t"
         ~text:[ label "main"; mov eax (i (-4)); mov ebx (mb eax); hlt ]
         ())
  in
  match outcome.Vm.Sched.stop with
  | Vm.Interp.Fault _ -> ()
  | s -> Alcotest.failf "expected fault, got %s" (Vm.Interp.stop_to_string s)

let test_div_by_zero () =
  let _, _, outcome =
    run_native
      (program ~name:"t"
         ~text:[ label "main"; mov eax (i 1); mov ebx (i 0); idiv ebx; hlt ]
         ())
  in
  match outcome.Vm.Sched.stop with
  | Vm.Interp.Fault s ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "mentions div" true (contains s "division")
  | s -> Alcotest.failf "expected fault, got %s" (Vm.Interp.stop_to_string s)

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let cycles_of ?(family = Vm.Cost.Pentium4) prog =
  let _, _, outcome = run_native ~family prog in
  outcome.Vm.Sched.cycles

let count_loop body =
  program ~name:"t"
    ~text:
      ([ label "main"; mov ecx (i 0); label "loop" ]
      @ body
      @ [ inc ecx; cmp ecx (i 1000); j l "loop"; hlt ])
    ()

let test_family_inc_vs_add () =
  (* On P4, inc is slower than add 1; on P3 it is not. *)
  let inc_p4 = cycles_of ~family:Vm.Cost.Pentium4 (count_loop [ inc eax ]) in
  let add_p4 = cycles_of ~family:Vm.Cost.Pentium4 (count_loop [ add eax (i 1) ]) in
  let inc_p3 = cycles_of ~family:Vm.Cost.Pentium3 (count_loop [ inc eax ]) in
  let add_p3 = cycles_of ~family:Vm.Cost.Pentium3 (count_loop [ add eax (i 1) ]) in
  checkb "P4: inc slower than add" true (inc_p4 > add_p4);
  checkb "P3: inc not slower than add" true (inc_p3 <= add_p3)

let test_emulation_overhead () =
  let prog = count_loop [ add eax (i 1) ] in
  let image = Asm.Assemble.assemble prog in
  let native =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    (Vm.Sched.run ~emulate:false m).Vm.Sched.cycles
  in
  let emu =
    let m = Vm.Machine.create () in
    ignore (Asm.Image.load m image);
    (Vm.Sched.run ~emulate:true m).Vm.Sched.cycles
  in
  checkb "emulation is > 50x native" true (emu > 50 * native)

let test_ras_prediction () =
  (* call/ret pairs should be much cheaper than matched indirect jumps *)
  let call_prog =
    program ~name:"t"
      ~text:
        [
          label "main"; mov ecx (i 0);
          label "loop"; call "f"; inc ecx; cmp ecx (i 1000); j l "loop"; hlt;
          label "f"; ret;
        ]
      ()
  in
  let c = cycles_of call_prog in
  (* the same control flow written as push + pop/jmp_ind (what a code
     cache must do) loses RAS prediction when call sites alternate *)
  let mangled_prog =
    program ~name:"t"
      ~text:
        [
          label "main"; mov ecx (i 0);
          label "loop";
          push_lbl "ret1"; jmp "f";
          label "ret1";
          push_lbl "ret2"; jmp "f";
          label "ret2";
          inc ecx; cmp ecx (i 500); j l "loop"; hlt;
          (* f "returns" via pop + indirect jump: alternating targets
             defeat the one-entry BTB *)
          label "f"; pop eax; jmp_ind eax;
        ]
      ()
  in
  let c_mangled = cycles_of mangled_prog in
  (* both loops perform 1000 call/returns *)
  checkb "RAS-predicted returns beat indirect jumps" true (c < c_mangled)

(* ------------------------------------------------------------------ *)
(* Threads and signals                                                *)
(* ------------------------------------------------------------------ *)

let test_two_threads () =
  let prog =
    program ~name:"t"
      ~text:
        [
          label "main";
          label "spin";  (* wait for worker to write flag *)
          ld eax "flag";
          test eax eax;
          j z "spin";
          out (i 7);
          hlt;
          label "worker";
          mov eax (i 1);
          st "flag" eax;
          hlt;
        ]
      ~data:[ label "flag"; word32 [ 0 ] ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  ignore (Asm.Image.spawn m image "worker");
  let outcome = Vm.Sched.run ~quantum:1000 ~max_cycles:10_000_000 ~emulate:false m in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "stopped with %s" (Vm.Interp.stop_to_string s));
  check_ilist "thread handoff" [ 7 ] (Vm.Machine.output m)

let test_signal_native () =
  let prog =
    program ~name:"t"
      ~text:
        [
          label "main";
          mov ecx (i 0);
          label "loop";
          inc ecx;
          cmp ecx (i 100000);
          j l "loop";
          out ecx;
          hlt;
          label "handler";
          out (i 555);
          ret;  (* return to interrupted pc (pushed by delivery) *)
        ]
      ()
  in
  let image = Asm.Assemble.assemble prog in
  let m = Vm.Machine.create () in
  ignore (Asm.Image.load m image);
  Vm.Machine.schedule_signal m ~at:500 ~tid:0
    ~handler:(Asm.Image.label image "handler");
  let outcome = Vm.Sched.run ~emulate:false m in
  (match outcome.Vm.Sched.stop with
   | Vm.Interp.Halted -> ()
   | s -> Alcotest.failf "stopped with %s" (Vm.Interp.stop_to_string s));
  check_ilist "signal ran then program finished" [ 555; 100000 ]
    (Vm.Machine.output m)

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

let test_branch_relaxation () =
  (* a branch over >127 bytes of code must use the rel32 form; one over
     a few bytes must use rel8.  Both must still run correctly. *)
  let far_body = List.init 60 (fun _ -> add eax (i 1000)) (* 6 bytes each *) in
  expect_output "relaxed branches"
    (program ~name:"t"
       ~text:
         ([ label "main"; mov eax (i 0); cmp eax (i 1); j z "far" ]
         @ far_body
         @ [ label "far"; out eax; hlt ])
       ())
    [ 60000 ]

let test_duplicate_label () =
  let prog =
    program ~name:"t" ~text:[ label "main"; label "main"; hlt ] ()
  in
  checkb "duplicate label rejected" true
    (match Asm.Assemble.assemble prog with
     | exception Asm.Ast.Duplicate_label "main" -> true
     | exception _ -> false
     | _ -> false)

let test_unknown_label () =
  let prog = program ~name:"t" ~text:[ label "main"; jmp "nowhere" ] () in
  checkb "unknown label rejected" true
    (match Asm.Assemble.assemble prog with
     | exception _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Compiled executors against the reference model                     *)
(* ------------------------------------------------------------------ *)

(* Program pieces: safe straight-line instructions (scratch memory off
   ebp/esi only) plus control flow and stack traffic.  Subroutines are
   called repeatedly, so cached executors are reused. *)
type piece =
  | Straight of Isa.Insn.t
  | Skip of Isa.Cond.t * Isa.Insn.t      (* jcc over one instruction *)
  | Skip_ind of Isa.Insn.t               (* jmp* over one instruction *)
  | Call_sub of int * bool               (* subroutine; true: via call* *)
  | Push_pop of Isa.Operand.t * Isa.Operand.t

let n_subs = 2

let gen_piece : piece QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (8, map (fun i -> Straight i) Gen.safe_insn);
      (2, map2 (fun c i -> Skip (c, i)) Gen.cond Gen.safe_insn);
      (1, map (fun i -> Skip_ind i) Gen.safe_insn);
      (2, map2 (fun k ind -> Call_sub (k, ind)) (int_range 0 (n_subs - 1)) bool);
      (1, map2 (fun s d -> Push_pop (s, d)) Gen.safe_src Gen.safe_rm);
    ]

(* subroutine bodies keep the stack balanced so [ret] finds its address *)
let gen_sub_insn : Isa.Insn.t QCheck2.Gen.t =
  QCheck2.Gen.map
    (fun (i : Isa.Insn.t) ->
      if Isa.Opcode.implicit_stack_read i.opcode
         || Isa.Opcode.implicit_stack_write i.opcode
      then Isa.Insn.mk_nop ()
      else i)
    Gen.safe_insn

let gen_exec_program : (piece list * Isa.Insn.t list list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  pair
    (list_size (int_range 1 30) gen_piece)
    (list_repeat n_subs (list_size (int_range 0 6) gen_sub_insn))

let print_exec_program (pieces, subs) =
  let ins = Gen.print_insn in
  let piece = function
    | Straight i -> ins i
    | Skip (c, i) -> Printf.sprintf "j%s over: %s" (Isa.Cond.name c) (ins i)
    | Skip_ind i -> "jmp* over: " ^ ins i
    | Call_sub (k, ind) -> Printf.sprintf "call%s s%d" (if ind then "*" else "") k
    | Push_pop (a, b) ->
        Printf.sprintf "push %s; pop %s" (Fmt.str "%a" Isa.Operand.pp a)
          (Fmt.str "%a" Isa.Operand.pp b)
  in
  String.concat "\n"
    (List.map piece pieces
    @ List.concat
        (List.mapi (fun k b -> Printf.sprintf "s%d:" k :: List.map ins b @ [ "ret" ]) subs))

let exec_image (pieces, subs) =
  let n = ref 0 in
  let fresh () = incr n; Printf.sprintf "l%d" !n in
  let piece = function
    | Straight i -> [ plain i ]
    | Skip (c, i) -> let l = fresh () in [ j c l; plain i; label l ]
    | Skip_ind i -> let l = fresh () in [ li edi l; jmp_ind edi; plain i; label l ]
    | Call_sub (k, false) -> [ call (Printf.sprintf "s%d" k) ]
    | Call_sub (k, true) -> [ li edi (Printf.sprintf "s%d" k); call_ind edi ]
    | Push_pop (a, b) -> [ push a; pop b ]
  in
  let sub k body = (label (Printf.sprintf "s%d" k) :: List.map plain body) @ [ ret ] in
  Asm.Assemble.assemble
    (program ~name:"exec"
       ~text:
         ((label "main" :: List.concat_map piece pieces)
         @ (hlt :: List.concat (List.mapi sub subs)))
       ())

let ebp_base = 0x20000
let esi_base = 0x30000

type final = {
  f_stop : string;
  f_pc : int;
  f_regs : int list;
  f_fregs : int64 list;
  f_flags : int;
  f_out : int list;
  f_cycles : int;
  f_insns : int;
  f_mem : string list;
}

let run_exec image ~emulate run =
  let m = Vm.Machine.create () in
  let mem = Vm.Machine.mem m in
  let t = Asm.Image.load m image in
  for k = 0 to Gen.safe_slots - 1 do
    Vm.Memory.write_u32 mem (ebp_base + (8 * k)) ((k + 1) * 0x01010101);
    Vm.Memory.write_u32 mem (esi_base + (8 * k)) ((k + 3) * 0x00f0f0f1)
  done;
  List.iteri
    (fun k r -> Vm.Machine.set_reg t r ((k * 0x9E3779B1) + 5))
    Isa.Reg.[ Eax; Ecx; Edx; Ebx; Edi ];
  Vm.Machine.set_reg t Isa.Reg.Ebp ebp_base;
  Vm.Machine.set_reg t Isa.Reg.Esi esi_base;
  List.iteri
    (fun k f -> Vm.Machine.set_freg t f ((float_of_int k *. 1.5) -. 2.25))
    Isa.Reg.F.all;
  let stop = run m t ~budget:200_000 ~emulate in
  let bytes addr len = Bytes.to_string (Vm.Memory.read_bytes mem ~addr ~len) in
  let stack = Asm.Image.default_stack_top in
  {
    f_stop = Vm.Interp.stop_to_string stop;
    f_pc = t.Vm.Machine.pc;
    f_regs = List.map (Vm.Machine.get_reg t) Isa.Reg.all;
    f_fregs =
      List.map (fun f -> Int64.bits_of_float (Vm.Machine.get_freg t f)) Isa.Reg.F.all;
    f_flags = t.Vm.Machine.eflags;
    f_out = Vm.Machine.output m;
    f_cycles = Vm.Machine.cycles m;
    f_insns = m.Vm.Machine.insns_retired;
    f_mem =
      [
        bytes ebp_base (8 * Gen.safe_slots);
        bytes esi_base (8 * Gen.safe_slots);
        bytes (stack - 512) 512;
        bytes image.Asm.Image.text_base (Bytes.length image.Asm.Image.text);
      ];
  }

let prop_executors_match_reference ~emulate =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "compiled executors = reference model (%s)"
         (if emulate then "emulate" else "cached"))
    ~count:300 ~print:print_exec_program gen_exec_program
    (fun prog ->
      let image = exec_image prog in
      let a = run_exec image ~emulate Vm.Interp.run in
      let b = run_exec image ~emulate Ref_interp.run in
      if a = b then true
      else
        QCheck2.Test.fail_reportf
          "executors: %s pc=0x%x cycles=%d insns=%d\nreference: %s pc=0x%x cycles=%d insns=%d\nregs %b fregs %b flags %b out %b mem %b"
          a.f_stop a.f_pc a.f_cycles a.f_insns b.f_stop b.f_pc b.f_cycles b.f_insns
          (a.f_regs = b.f_regs) (a.f_fregs = b.f_fregs) (a.f_flags = b.f_flags)
          (a.f_out = b.f_out) (a.f_mem = b.f_mem))

(* Patching an executed instruction's immediate drops exactly that
   instruction's compiled slot: the next execution sees the new value,
   while a compiled instruction 64 bytes away on the same page keeps
   its executor.  Invalidating a whole page drops it too.  (Both
   checked slots capture operands: an executor without free variables
   is a static closure, equal to itself across recompilation.) *)
let test_smc_exact_invalidation () =
  let image =
    Asm.Assemble.assemble
      (program ~name:"smc"
         ~text:
           [
             label "main"; jmp "a";
             align 64; label "a"; mov eax (i 0x12345678); out eax; call "f"; hlt;
             align 64; label "f"; mov ebx (i 7); ret;
           ]
         ())
  in
  let a = Asm.Image.label image "a" and f = Asm.Image.label image "f" in
  Alcotest.(check int) "f is 64 bytes past a" 64 (f - a);
  checkb "same page" true (a lsr Vm.Memory.page_bits = f lsr Vm.Memory.page_bits);
  let m = Vm.Machine.create () in
  let t = Asm.Image.load m image in
  let main = t.Vm.Machine.pc in
  let run () =
    t.Vm.Machine.pc <- main;
    t.Vm.Machine.alive <- true;
    match Vm.Interp.run m t ~budget:10_000 ~emulate:false with
    | Vm.Interp.Halted -> ()
    | s -> Alcotest.failf "stopped with %s" (Vm.Interp.stop_to_string s)
  in
  let slot pc = m.Vm.Machine.icache.(pc land Vm.Machine.icache_mask) in
  let exec pc =
    let s = slot pc in
    checkb (Printf.sprintf "0x%x compiled" pc) true (s.Vm.Machine.is_pc = pc);
    s.Vm.Machine.is_exec
  in
  run ();
  let exec_a = exec a and exec_f = exec f in
  (* the imm32 is the mov's last four bytes *)
  Vm.Memory.write_u32 (Vm.Machine.mem m) (a + (slot a).Vm.Machine.is_len - 4) 0x0BADF00D;
  run ();
  check_ilist "new immediate on next execution" [ 0x12345678; 0x0BADF00D ]
    (Vm.Machine.output m);
  checkb "patched slot recompiled" false (exec a == exec_a);
  checkb "slot 64 bytes away kept" true (exec f == exec_f);
  Vm.Machine.invalidate_icache m ~addr:(a land lnot 0xFFF) ~len:4096;
  run ();
  checkb "page invalidation recompiles it" false (exec f == exec_f)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vm"
    [
      ( "semantics",
        [
          Alcotest.test_case "mov/out" `Quick test_mov_out;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "signed arith" `Quick test_signed_arith;
          Alcotest.test_case "carry/overflow flags" `Quick test_flags_cf_of;
          Alcotest.test_case "inc preserves CF" `Quick test_inc_preserves_cf;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "memory ops" `Quick test_memory_ops;
          Alcotest.test_case "call/ret" `Quick test_stack_and_calls;
          Alcotest.test_case "indirect branches" `Quick test_indirect_branches;
          Alcotest.test_case "floating point" `Quick test_fp;
          Alcotest.test_case "input port" `Quick test_in_port;
          Alcotest.test_case "oob fault" `Quick test_fault_oob;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "inc vs add by family" `Quick test_family_inc_vs_add;
          Alcotest.test_case "emulation overhead" `Quick test_emulation_overhead;
          Alcotest.test_case "RAS prediction" `Quick test_ras_prediction;
        ] );
      ( "threads+signals",
        [
          Alcotest.test_case "two threads" `Quick test_two_threads;
          Alcotest.test_case "native signal" `Quick test_signal_native;
        ] );
      ( "executors",
        [
          QCheck_alcotest.to_alcotest (prop_executors_match_reference ~emulate:false);
          QCheck_alcotest.to_alcotest (prop_executors_match_reference ~emulate:true);
          Alcotest.test_case "smc drops only the patched slot" `Quick
            test_smc_exact_invalidation;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "branch relaxation" `Quick test_branch_relaxation;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "unknown label" `Quick test_unknown_label;
        ] );
    ]
