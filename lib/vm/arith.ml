(** 32-bit integer arithmetic with IA-32-style eflags computation.

    Register values are represented as unsigned ints in [0, 2^32); these
    helpers compute results together with the full set of arithmetic
    flags.  Flags IA-32 leaves undefined (AF after logic ops, OF after
    multi-bit shifts) are given fixed deterministic definitions so the
    interpreter is a function.

    A result packs the value and the new flags into one immediate int,
    so the interpreter's ALU steps allocate nothing. *)

open Isa

let mask32 = 0xFFFF_FFFF
let wrap v = v land mask32
let msb v = v lsr 31 land 1 = 1

let to_signed v = if v >= 0x8000_0000 then v - 0x1_0000_0000 else v
let of_signed v = v land mask32

(* parity of the low byte: PF set when the number of 1 bits is even *)
let parity v =
  let b = v land 0xFF in
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  let b = b lxor (b lsr 1) in
  b land 1 = 0

type result = int

let flags_shift = 32
let pack v fl = v lor (fl lsl flags_shift)
let value (r : result) = r land mask32
let flags (r : result) : Eflags.t = r lsr flags_shift

let cf = Eflags.bit CF
let pf = Eflags.bit PF
let af = Eflags.bit AF
let zf = Eflags.bit ZF
let sf = Eflags.bit SF
let of_ = Eflags.bit OF
let bit b f = if b then f else 0

(* SF/ZF/PF from a result *)
let szp r = bit (r = 0) zf lor bit (msb r) sf lor bit (parity r) pf

(* the bits of [fl] outside [written] survive *)
let keep fl written = fl land lnot written

let add_c c a b fl =
  let full = a + b + c in
  let r = wrap full in
  pack r
    (keep fl Eflags.all_mask
    lor bit (full > mask32) cf
    lor bit (msb a = msb b && msb r <> msb a) of_
    lor bit ((a lxor b lxor r) land 0x10 <> 0) af
    lor szp r)

let sub_c c a b fl =
  let full = a - b - c in
  let r = wrap full in
  pack r
    (keep fl Eflags.all_mask
    lor bit (full < 0) cf
    lor bit (msb a <> msb b && msb r <> msb a) of_
    lor bit ((a lxor b lxor r) land 0x10 <> 0) af
    lor szp r)

let carry fl = bit (fl land cf <> 0) 1
let add a b fl = add_c 0 a b fl
let adc a b fl = add_c (carry fl) a b fl
let sub a b fl = sub_c 0 a b fl
let sbb a b fl = sub_c (carry fl) a b fl

(* [r] with its CF replaced by [c] *)
let with_cf r c = r land lnot (cf lsl flags_shift) lor (bit c cf lsl flags_shift)

(** inc/dec: like add/sub by one but CF preserved. *)
let inc a fl = with_cf (add a 1 fl) (fl land cf <> 0)
let dec a fl = with_cf (sub a 1 fl) (fl land cf <> 0)

(* logic ops clear CF/OF/AF, set SF/ZF/PF *)
let logic r fl = pack r (keep fl Eflags.all_mask lor szp r)

let land_ a b fl = logic (a land b) fl
let lor_ a b fl = logic (a lor b) fl
let lxor_ a b fl = logic (a lxor b) fl

let neg a fl = with_cf (sub 0 a fl) (a <> 0)

(* shifts: count masked to 5 bits like IA-32; count 0 leaves flags *)
let shl a count fl =
  let count = count land 31 in
  if count = 0 then pack a fl
  else
    let r = wrap (a lsl count) in
    let carry = a lsr (32 - count) land 1 = 1 in
    (* OF defined (IA-32: only for count=1): msb changed *)
    pack r
      (keep fl Eflags.all_mask
      lor bit carry cf
      lor bit (count = 1 && msb r <> carry) of_
      lor szp r)

let shr a count fl =
  let count = count land 31 in
  if count = 0 then pack a fl
  else
    let r = a lsr count in
    pack r
      (keep fl Eflags.all_mask
      lor bit (a lsr (count - 1) land 1 = 1) cf
      lor bit (count = 1 && msb a) of_
      lor szp r)

let sar a count fl =
  let count = count land 31 in
  if count = 0 then pack a fl
  else
    let sa = to_signed a in
    let r = of_signed (sa asr count) in
    pack r
      (keep fl Eflags.all_mask lor bit (sa asr (count - 1) land 1 = 1) cf lor szp r)

let imul a b fl =
  let full = to_signed a * to_signed b in
  let r = wrap full in
  let overflowed = full < -0x8000_0000 || full > 0x7FFF_FFFF in
  pack r
    (keep fl Eflags.all_mask lor bit overflowed cf lor bit overflowed of_ lor szp r)

exception Division_by_zero

(** SynISA [idiv src]: eax/src -> eax (quotient), remainder -> edx.
    Truncated (round-toward-zero) signed division, like IA-32.  The
    result carries the quotient; {!irem} gives the remainder. *)
let idiv ~eax src fl =
  if src land mask32 = 0 then raise Division_by_zero;
  (* OCaml's / and mod truncate toward zero, matching IA-32 *)
  let q = of_signed (to_signed eax / to_signed src) in
  pack q (keep fl Eflags.all_mask lor szp q)

let irem ~eax src =
  if src land mask32 = 0 then raise Division_by_zero;
  of_signed (to_signed eax mod to_signed src)

(** [fcmp a b] — comisd-style flags: unordered ZF=PF=CF=1; a>b all
    clear; a<b CF=1; a=b ZF=1.  OF/AF/SF cleared. *)
let fcmp (a : float) (b : float) fl =
  let fl = keep fl Eflags.all_mask in
  if Float.is_nan a || Float.is_nan b then fl lor zf lor pf lor cf
  else if a > b then fl
  else if a < b then fl lor cf
  else fl lor zf
