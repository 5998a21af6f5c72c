open Mvm

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
   range. The checksum guards each entry line against the bit rot and
   truncation a log suffers on its way off the production machine. The
   running value fits a native int, so the per-byte step allocates
   nothing. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Log_io.crc32";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* a CRC as 8 lowercase hex digits, most significant first *)
let put_hex8 b pos crc =
  for k = 0 to 7 do
    Bytes.unsafe_set b (pos + k)
      "0123456789abcdef".[(crc lsr (28 - (4 * k))) land 0xF]
  done

let crc_hex s =
  let b = Bytes.create 8 in
  put_hex8 b 0 (crc32 s 0 (String.length s));
  Bytes.unsafe_to_string b

let rec hex_from s pos k acc =
  if k = 8 then acc
  else
    match String.unsafe_get s (pos + k) with
    | '0' .. '9' as c -> hex_from s pos (k + 1) ((acc lsl 4) + Char.code c - 48)
    | 'a' .. 'f' as c -> hex_from s pos (k + 1) ((acc lsl 4) + Char.code c - 87)
    | _ -> -1

(* the value of the 8 lowercase hex digits at [pos], or -1 *)
let read_hex8 s pos =
  if pos < 0 || pos > String.length s - 8 then -1 else hex_from s pos 0 0

let crc_matches hex s pos len =
  String.length hex = 8 && read_hex8 hex 0 = crc32 s pos len

(* ------------------------------------------------------------------ *)
(* the writer: one growable byte buffer *)

type out = { mutable bytes : Bytes.t; mutable len : int }

let out_create n = { bytes = Bytes.create n; len = 0 }
let out_length o = o.len
let out_clear o = o.len <- 0
let out_contents o = Bytes.sub_string o.bytes 0 o.len
let out_sub o pos len = Bytes.sub_string o.bytes pos len

let reserve o n =
  let need = o.len + n in
  if need > Bytes.length o.bytes then begin
    let b = Bytes.create (max need (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 b 0 o.len;
    o.bytes <- b
  end

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

(* decimal, like [string_of_int]; digits come off the non-positive side,
   where [min_int] still has a magnitude *)
let rec digits k w = if k > -10 then w else digits (k / 10) (w + 1)

let rec fill_digits b k p =
  Bytes.unsafe_set b p (Char.unsafe_chr (48 - (k mod 10)));
  if k <= -10 then fill_digits b (k / 10) (p - 1)

let add_int o n =
  let m = if n < 0 then n else -n in
  let w = digits m 1 + if n < 0 then 1 else 0 in
  reserve o w;
  if n < 0 then Bytes.unsafe_set o.bytes o.len '-';
  fill_digits o.bytes m (o.len + w - 1);
  o.len <- o.len + w

(* a double-quoted [String.escaped], which allocates only when the
   string needs escaping *)
let add_quoted o s =
  add_char o '"';
  add_string o (String.escaped s);
  add_char o '"'

(* The one framing writer: [framed o f x] appends [<crc8> <body>\n], the
   body written by [f o x] straight after a reserved checksum slot that
   is then patched in place. *)
let framed o f x =
  let start = o.len in
  reserve o 9;
  o.len <- start + 9;
  f o x;
  let body = start + 9 in
  put_hex8 o.bytes start
    (crc32 (Bytes.unsafe_to_string o.bytes) body (o.len - body));
  Bytes.unsafe_set o.bytes (start + 8) ' ';
  add_char o '\n'

(* ------------------------------------------------------------------ *)
(* encoding *)

let add_value o = function
  | Value.Vint n -> add_string o "i:"; add_int o n
  | Value.Vbool b -> add_string o (if b then "b:true" else "b:false")
  | Value.Vstr s -> add_string o "s:"; add_quoted o s
  | Value.Vunit -> add_char o 'u'

let add_failure o = function
  | Failure.Crash { sid; msg } ->
    add_string o "crash ";
    add_int o sid;
    add_char o ' ';
    add_quoted o msg
  | Failure.Spec_violation tag -> add_string o "spec "; add_quoted o tag
  | Failure.Hang -> add_string o "hang"

(* "<keyword> <tid> <sid>", the prefix most entries share *)
let add_site o kw tid sid =
  add_string o kw;
  add_int o tid;
  add_char o ' ';
  add_int o sid

let add_entry o = function
  | Log.Sched { tid; sid } -> add_site o "sched " tid sid
  | Log.Input { tid; chan; value } ->
    add_string o "input ";
    add_int o tid;
    add_char o ' ';
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Read_val { tid; sid; kind; value } ->
    add_site o "readval " tid sid;
    add_string o (match kind with Log.Mem -> " mem " | Log.Msg -> " msg ");
    add_value o value
  | Log.Output { chan; value } ->
    add_string o "output ";
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Sync { tid; sid; op } -> (
    add_site o "sync " tid sid;
    match op with
    | Log.Op_send c -> add_string o " send "; add_string o c
    | Log.Op_recv c -> add_string o " recv "; add_string o c
    | Log.Op_spawn -> add_string o " spawn -"
    | Log.Op_lock m -> add_string o " lock "; add_string o m
    | Log.Op_unlock m -> add_string o " unlock "; add_string o m)
  | Log.Cp_sched { tid; sid } -> add_site o "cpsched " tid sid
  | Log.Cp_input { tid; sid; chan; value } ->
    add_site o "cpinput " tid sid;
    add_char o ' ';
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Failure_desc f -> add_string o "faildesc "; add_failure o f
  | Log.Flight_note { buffered } -> add_string o "flight "; add_int o buffered
  | Log.Mark m -> add_string o "mark "; add_quoted o m
  | Log.Govern { step; level; reason } ->
    add_string o "govern ";
    add_int o step;
    add_char o ' ';
    add_int o level;
    add_char o ' ';
    add_quoted o reason

(* The header lines, plain or each framed (the causal manifest CRCs its
   header too). *)
let add_header ~framed:fr o (log : Log.t) =
  let line f x =
    if fr then framed o f x
    else begin
      f o x;
      add_char o '\n'
    end
  in
  line (fun o r -> add_string o "recorder "; add_quoted o r) log.Log.recorder;
  line (fun o n -> add_string o "base-steps "; add_int o n) log.Log.base_steps;
  line
    (fun o -> function
      | Some f -> add_string o "failure "; add_failure o f
      | None -> add_string o "failure none")
    log.Log.failure;
  match log.Log.faults with
  | Some plan ->
    line
      (fun o p -> add_string o "faults "; add_quoted o (Fault.to_string p))
      plan
  | None -> ()

let log_magic = "ddet-log v2"

let to_string (log : Log.t) =
  let o = out_create 4096 in
  add_string o log_magic;
  add_char o '\n';
  add_header ~framed:false o log;
  let n =
    List.fold_left
      (fun n e ->
        framed o add_entry e;
        n + 1)
      0 log.Log.entries
  in
  add_string o "end ";
  add_int o n;
  add_char o '\n';
  out_contents o

(* ------------------------------------------------------------------ *)
(* lines and frames *)

(* [f n ls le] for every '\n'-separated line s[ls, le), numbered from 1;
   a final empty line follows a trailing '\n', as [String.split_on_char]
   would give it *)
let rec line_end s i =
  if i = String.length s || String.unsafe_get s i = '\n' then i
  else line_end s (i + 1)

let iter_lines s f =
  let rec from n ls =
    let le = line_end s ls in
    f n ls le;
    if le < String.length s then from (n + 1) (le + 1)
  in
  from 1 0

(* blank as [String.trim] sees it *)
let rec is_blank s ls le =
  ls = le
  ||
  match String.unsafe_get s ls with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> is_blank s (ls + 1) le
  | _ -> false

type frame = Unframed | Bad_crc | Framed

(* The one framing verifier. A framed line starts with 8 lowercase hex
   digits and a space; header keywords and trailers never do, so the
   classification is unambiguous. The body starts at [ls + 9]. *)
let check_frame s ls le =
  if le - ls < 9 || String.unsafe_get s (ls + 8) <> ' ' then Unframed
  else
    let stored = read_hex8 s ls in
    if stored < 0 then Unframed
    else if stored = crc32 s (ls + 9) (le - ls - 9) then Framed
    else Bad_crc

(* ------------------------------------------------------------------ *)
(* decoding *)

exception Parse of string

(* A decoder reads one string in place. A line is first split into
   space-separated tokens, kept as ranges. A double quote opens an
   OCaml-escaped span that runs to the matching close quote and does not
   end the token; the token's text is its bytes minus each span's
   closing quote, so both bare strings ([mark "a b"]) and typed values
   ([s:"a b"]) are single tokens. [quote] is -1 for a token without
   quotes, the index of the opening quote when the token holds one span
   that closes on its last byte, and -2 otherwise. *)
type decoder = {
  s : string;
  mutable ntok : int;
  mutable start : int array;
  mutable stop : int array;
  mutable quote : int array;
  scratch : Buffer.t;
}

let decoder s =
  {
    s;
    ntok = 0;
    start = Array.make 8 0;
    stop = Array.make 8 0;
    quote = Array.make 8 0;
    scratch = Buffer.create 64;
  }

let rec close_quote s j le =
  if j >= le then raise (Parse "unterminated string")
  else
    match String.unsafe_get s j with
    | '"' -> j
    | '\\' when j + 1 < le -> close_quote s (j + 2) le
    | _ -> close_quote s (j + 1) le

let push_token d a b q =
  if d.ntok = Array.length d.start then begin
    let grow arr = Array.append arr arr in
    d.start <- grow d.start;
    d.stop <- grow d.stop;
    d.quote <- grow d.quote
  end;
  d.start.(d.ntok) <- a;
  d.stop.(d.ntok) <- b;
  d.quote.(d.ntok) <- q;
  d.ntok <- d.ntok + 1

let rec tokens_from d le i =
  if i < le then
    if String.unsafe_get d.s i = ' ' then tokens_from d le (i + 1)
    else token d le i i (-1) 0 (-1)

(* the token that started at [a]; [i] is the next byte to read *)
and token d le a i quote spans last_close =
  if i = le || String.unsafe_get d.s i = ' ' then begin
    push_token d a i
      (if spans = 0 then -1
       else if spans = 1 && last_close = i - 1 then quote
       else -2);
    tokens_from d le i
  end
  else if String.unsafe_get d.s i = '"' then
    let j = close_quote d.s (i + 1) le in
    token d le a (j + 1) (if spans = 0 then i else quote) (spans + 1) j
  else token d le a (i + 1) quote spans last_close

let tokenize d ls le =
  d.ntok <- 0;
  tokens_from d le ls

(* s[a, a + |kw|) = kw *)
let rec range_is s a kw i =
  i = String.length kw
  || String.unsafe_get s (a + i) = String.unsafe_get kw i
     && range_is s a kw (i + 1)

let tok_is d k kw =
  d.stop.(k) - d.start.(k) = String.length kw
  && range_is d.s d.start.(k) kw 0

(* the token's text: its bytes minus each span's closing quote *)
let tok_string d k =
  let s = d.s and a = d.start.(k) and b = d.stop.(k) in
  if d.quote.(k) = -1 then String.sub s a (b - a)
  else begin
    let buf = d.scratch in
    Buffer.clear buf;
    let rec go i =
      if i < b then
        if String.unsafe_get s i = '"' then begin
          let j = close_quote s (i + 1) b in
          Buffer.add_substring buf s i (j - i);
          go (j + 1)
        end
        else begin
          Buffer.add_char buf (String.unsafe_get s i);
          go (i + 1)
        end
    in
    go a;
    Buffer.contents buf
  end

(* [int_of_string] of s[a, b): plain decimal is read in place, and any
   other spelling the stdlib accepts (0x1f, 1_000, +5, 19 digits) goes
   to [int_of_string_opt], so the two agree on every input *)
let int_slow s a b =
  match int_of_string_opt (String.sub s a (b - a)) with
  | Some n -> n
  | None -> raise (Parse "int_of_string")

(* the sign is applied on the fast path only: [int_slow] reads the whole
   token, sign included *)
let rec int_digits s a b neg i acc =
  if i = b then if neg then -acc else acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
      int_digits s a b neg (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> int_slow s a b

let int_in s a b =
  let neg = b > a && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  if b - d0 < 1 || b - d0 > 18 then int_slow s a b
  else int_digits s a b neg d0 0

let tok_int d k = int_in d.s d.start.(k) d.stop.(k)

(* [Scanf.unescaped] of src[p, q), error messages included. Scanf reads
   the text wrapped in double quotes, w = '"' ^ text ^ '"', and reports
   positions in w; [w j] below is that byte. Lines hold no '\n', so the
   escaped-newline rule never applies. *)
let rec unescaped_range src i q =
  i = q
  || match String.unsafe_get src i with
     | '"' | '\\' -> false
     | _ -> unescaped_range src (i + 1) q

let unescape d src p q =
  let n = q - p in
  if unescaped_range src p q then String.sub src p n
  else begin
    let buf = d.scratch in
    Buffer.clear buf;
    let w j =
      if j = 0 || j = n + 1 then '"' else String.unsafe_get src (p + j - 1)
    in
    let fail count msg =
      Parse
        ("scanf: bad input at char number " ^ string_of_int count ^ ": " ^ msg)
    in
    let illegal count c =
      fail count ("illegal escape character '" ^ Char.escaped c ^ "'")
    in
    let digit c = c >= '0' && c <= '9' in
    let hex c = digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
    let hex_value c =
      if digit c then Char.code c - 48 else (Char.code c lor 32) - 87
    in
    let rec stop j =
      if j > n + 1 then
        raise
          (fail (n + 2)
             "scanning of a String failed: premature end of file occurred \
              before end of token")
      else
        match w j with
        | '"' ->
          if j = n + 1 then Buffer.contents buf
          else raise (fail (j + 1) "end of input not found")
        | '\\' -> escape (j + 1)
        | c -> Buffer.add_char buf c; stop (j + 1)
    (* [w j] follows a backslash *)
    and escape j =
      match w j with
      | '\r' ->
        (* not followed by '\n': Scanf keeps the CR and drops the next byte *)
        Buffer.add_char buf '\r';
        stop (j + 2)
      | ('\\' | '\'' | '"' | 'n' | 't' | 'b' | 'r') as c ->
        Buffer.add_char buf
          (match c with
          | 'n' -> '\n'
          | 't' -> '\t'
          | 'b' -> '\b'
          | 'r' -> '\r'
          | c -> c);
        stop (j + 1)
      | '0' .. '9' as c0 ->
        let c1 = w (j + 1) in
        if not (digit c1) then raise (illegal (j + 1) c1);
        let c2 = w (j + 2) in
        if not (digit c2) then raise (illegal (j + 2) c2);
        let code =
          (100 * (Char.code c0 - 48)) + (10 * (Char.code c1 - 48))
          + Char.code c2 - 48
        in
        if code > 255 then
          raise
            (fail (j + 2)
               ("bad character decimal encoding \\"
               ^ String.init 3 (fun i -> [| c0; c1; c2 |].(i))));
        Buffer.add_char buf (Char.chr code);
        stop (j + 3)
      | 'x' ->
        let c1 = w (j + 1) in
        if not (hex c1) then raise (illegal (j + 1) c1);
        let c2 = w (j + 2) in
        if not (hex c2) then raise (illegal (j + 2) c2);
        Buffer.add_char buf (Char.chr ((16 * hex_value c1) + hex_value c2));
        stop (j + 3)
      | c -> raise (illegal j c)
    in
    stop 1
  end

(* the token's text from raw offset [p] (no quote before it) as a quoted
   string *)
let quoted_from d k p =
  if d.quote.(k) = p then unescape d d.s (p + 1) (d.stop.(k) - 1)
  else
    let tok = tok_string d k in
    let off = p - d.start.(k) in
    let rest = String.sub tok off (String.length tok - off) in
    if String.length rest > 0 && rest.[0] = '"' then
      unescape d rest 1 (String.length rest)
    else raise (Parse ("expected quoted string, got " ^ rest))

let tok_quoted d k = quoted_from d k d.start.(k)

let bad_value d k = Parse ("bad value token " ^ tok_string d k)

let dec_value d k =
  let s = d.s and a = d.start.(k) and b = d.stop.(k) in
  if b - a = 1 && String.unsafe_get s a = 'u' then Value.unit
  else if b - a > 2 && String.unsafe_get s (a + 1) = ':' then
    match String.unsafe_get s a with
    | 'i' -> Value.int (int_in s (a + 2) b)
    | 'b' ->
      if b - a = 6 && range_is s (a + 2) "true" 0 then Value.bool true
      else if b - a = 7 && range_is s (a + 2) "false" 0 then Value.bool false
      else raise (bad_value d k)
    | 's' -> Value.str (quoted_from d k (a + 2))
    | _ -> raise (bad_value d k)
  else raise (bad_value d k)

(* Fields are decoded right to left, the order OCaml evaluates a record's
   fields in, which is the order the format's error reports were defined
   by: a line with two bad fields names the rightmost one. *)
let dec_failure d k0 =
  let n = d.ntok - k0 in
  if n = 3 && tok_is d k0 "crash" then
    let msg = tok_quoted d (k0 + 2) in
    Failure.Crash { sid = tok_int d (k0 + 1); msg }
  else if n = 2 && tok_is d k0 "spec" then
    Failure.Spec_violation (tok_quoted d (k0 + 1))
  else if n = 1 && tok_is d k0 "hang" then Failure.Hang
  else
    raise
      (Parse
         ("bad failure: "
         ^ String.concat " " (List.init n (fun i -> tok_string d (k0 + i)))))

let dec_kind d k =
  if tok_is d k "mem" then Log.Mem
  else if tok_is d k "msg" then Log.Msg
  else raise (Parse ("bad read kind " ^ tok_string d k))

let dec_op d k =
  if tok_is d k "send" then Log.Op_send (tok_string d (k + 1))
  else if tok_is d k "recv" then Log.Op_recv (tok_string d (k + 1))
  else if tok_is d k "spawn" then Log.Op_spawn
  else if tok_is d k "lock" then Log.Op_lock (tok_string d (k + 1))
  else if tok_is d k "unlock" then Log.Op_unlock (tok_string d (k + 1))
  else raise (Parse ("bad sync op " ^ tok_string d k))

(* the entry on the tokenized line s[ls, le) *)
let dec_tokens d ls le =
  let n = d.ntok in
  if n = 0 then raise (Parse ("bad entry: " ^ String.sub d.s ls (le - ls)))
  else if n = 3 && tok_is d 0 "sched" then
    let sid = tok_int d 2 in
    Log.Sched { tid = tok_int d 1; sid }
  else if n = 5 && tok_is d 0 "readval" then
    let value = dec_value d 4 in
    let kind = dec_kind d 3 in
    let sid = tok_int d 2 in
    Log.Read_val { tid = tok_int d 1; sid; kind; value }
  else if n = 4 && tok_is d 0 "input" then
    let value = dec_value d 3 in
    Log.Input { tid = tok_int d 1; chan = tok_string d 2; value }
  else if n = 5 && tok_is d 0 "sync" then
    let op = dec_op d 3 in
    let sid = tok_int d 2 in
    Log.Sync { tid = tok_int d 1; sid; op }
  else if n = 3 && tok_is d 0 "output" then
    let value = dec_value d 2 in
    Log.Output { chan = tok_string d 1; value }
  else if n = 3 && tok_is d 0 "cpsched" then
    let sid = tok_int d 2 in
    Log.Cp_sched { tid = tok_int d 1; sid }
  else if n = 5 && tok_is d 0 "cpinput" then
    let value = dec_value d 4 in
    let chan = tok_string d 3 in
    let sid = tok_int d 2 in
    Log.Cp_input { tid = tok_int d 1; sid; chan; value }
  else if tok_is d 0 "faildesc" then Log.Failure_desc (dec_failure d 1)
  else if n = 2 && tok_is d 0 "flight" then
    Log.Flight_note { buffered = tok_int d 1 }
  else if n = 2 && tok_is d 0 "mark" then Log.Mark (tok_quoted d 1)
  else if n = 4 && tok_is d 0 "govern" then
    let reason = tok_quoted d 3 in
    let level = tok_int d 2 in
    Log.Govern { step = tok_int d 1; level; reason }
  else raise (Parse ("bad entry: " ^ String.sub d.s ls (le - ls)))

let dec_entry d ls le =
  tokenize d ls le;
  dec_tokens d ls le

(* ------------------------------------------------------------------ *)
(* modes, damage reports *)

type mode = Strict | Salvage

type damage = {
  total_lines : int;
  salvaged_entries : int;
  corrupt_lines : (int * string * string) list;
  truncated : bool;
}

let is_damaged d = d.corrupt_lines <> [] || d.truncated

let pp_damage ppf d =
  if not (is_damaged d) then Format.fprintf ppf "log intact"
  else begin
    Format.fprintf ppf "@[<v>salvaged %d entries from %d lines%s"
      d.salvaged_entries d.total_lines
      (if d.truncated then " (truncated tail)" else "");
    List.iter
      (fun (n, reason, text) ->
        Format.fprintf ppf "@,  line %d: %s (in: %S)" n reason text)
      d.corrupt_lines;
    Format.fprintf ppf "@]"
  end

(* Every parse failure is reported with its 1-based line number and the
   offending text, whether it becomes a hard Error (Strict) or a damage
   record (Salvage). *)
let line_error n reason text =
  "line " ^ string_of_int n ^ ": " ^ reason ^ " (in: \"" ^ String.escaped text
  ^ "\")"

(* the header before any header line is read *)
let no_header =
  Log.make ~recorder:"unknown" ~entries:[] ~base_steps:0 ~failure:None ()

(* [h] updated by the header line on the tokenized line, if it is one *)
let header_tokens d (h : Log.t) =
  let n = d.ntok in
  if n = 2 && tok_is d 0 "recorder" then
    Some { h with recorder = tok_quoted d 1 }
  else if n = 2 && tok_is d 0 "base-steps" then
    Some { h with base_steps = tok_int d 1 }
  else if n = 2 && tok_is d 0 "failure" && tok_is d 1 "none" then
    Some { h with failure = None }
  else if n > 0 && tok_is d 0 "failure" then
    Some { h with failure = Some (dec_failure d 1) }
  else if n = 2 && tok_is d 0 "faults" then
    match Fault.of_string (tok_quoted d 1) with
    | Ok p -> Some { h with faults = Some p }
    | Error e -> raise (Parse ("bad fault plan: " ^ e))
  else None

(* ------------------------------------------------------------------ *)
(* the entry stream: a magic line, header lines, [<crc8> <entry>] lines,
   then [end N]. Monolithic logs and shards, segments and the segment
   header file differ only in their magic. *)

(* One pass over the string in both modes. Strict turns the first
   problem into an Error and reads no further; Salvage records it and
   keeps the valid prefix, reading on unless [until_damage]. The first
   non-blank line is the magic; a body line is framed, a header line or
   the [end N] trailer. *)
let read_stream ~magic ?(until_damage = false) ?(mode = Strict) s =
  let d = decoder s in
  let hdr = ref no_header in
  let entries = ref [] and count = ref 0 and corrupt = ref [] in
  let trailer = ref None and strict_error = ref None in
  let total_lines = ref 0 and magic_seen = ref false and stopped = ref false in
  let problem n reason ls le =
    let text = String.sub s ls (le - ls) in
    match mode with
    | Strict ->
      strict_error := Some (line_error n reason text);
      stopped := true
    | Salvage ->
      corrupt := (n, reason, text) :: !corrupt;
      if until_damage then stopped := true
  in
  (* even the magic can be the corrupted line; Salvage assumes the
     stream goes on and keeps whatever survives *)
  let magic_line n ls le =
    magic_seen := true;
    let m = String.trim (String.sub s ls (le - ls)) in
    if not (String.equal m magic) then
      problem n (if mode = Strict then "bad magic: " ^ m else "bad magic") ls le
  in
  let body_line n ls le =
    match check_frame s ls le with
    | Framed -> (
      match dec_entry d (ls + 9) le with
      | e ->
        entries := e :: !entries;
        incr count
      | exception Parse msg -> problem n msg ls le)
    | Bad_crc ->
      problem n
        ("crc mismatch (stored " ^ String.sub s ls 8 ^ ", computed "
        ^ crc_hex (String.sub s (ls + 9) (le - ls - 9))
        ^ ")")
        ls le
    | Unframed -> (
      match tokenize d ls le with
      | exception Parse msg -> problem n msg ls le
      | () ->
        if d.ntok = 2 && tok_is d 0 "end" then
          match tok_int d 1 with
          | c -> trailer := Some c
          | exception Parse _ -> problem n "bad trailer count" ls le
        else
          match header_tokens d !hdr with
          | Some h -> hdr := h
          | None -> problem n "unrecognised line" ls le
          | exception Parse msg -> problem n msg ls le)
  in
  iter_lines s (fun n ls le ->
      if not (is_blank s ls le) then begin
        incr total_lines;
        if not !magic_seen then magic_line n ls le
        else if not !stopped then body_line n ls le
      end);
  if !total_lines = 0 then Error "empty log"
  else
    match !strict_error with
    | Some e -> Error e
    | None ->
      let truncated =
        match !trailer with None -> true | Some c -> c <> !count
      in
      if mode = Strict && truncated then
        Error
          (match !trailer with
          | None -> "missing `end` trailer (truncated log)"
          | Some c ->
            "trailer count " ^ string_of_int c ^ " does not match "
            ^ string_of_int !count ^ " entries")
      else
        Ok
          ( { !hdr with entries = List.rev !entries },
            {
              total_lines = !total_lines;
              salvaged_entries = !count;
              corrupt_lines = List.rev !corrupt;
              truncated;
            } )

let of_string_report ?mode s = read_stream ~magic:log_magic ?mode s
let of_string ?mode s = Result.map fst (of_string_report ?mode s)

(* ------------------------------------------------------------------ *)
(* the framed-line file: a magic line, then [<crc8> <body>] lines *)

let read_framed ~magic mode s line =
  let corrupt = ref 0 and error = ref None and magic_seen = ref false in
  let problem n reason ls le =
    incr corrupt;
    if mode = Strict then
      error := Some (line_error n reason (String.sub s ls (le - ls)))
  in
  iter_lines s (fun n ls le ->
      if !error = None && not (is_blank s ls le) then
        if not !magic_seen then begin
          magic_seen := true;
          let text = String.sub s ls (le - ls) in
          let m = String.trim text in
          if not (String.equal m magic) then
            error := Some (line_error n ("bad magic: " ^ m) text)
        end
        else
          match check_frame s ls le with
          | Framed -> (
            match line (String.sub s (ls + 9) (le - ls - 9)) with
            | true -> ()
            | false -> problem n "unrecognised line" ls le
            | exception Parse msg -> problem n msg ls le)
          | Bad_crc -> problem n "crc mismatch" ls le
          | Unframed -> problem n "unframed line" ls le);
  match !error with
  | Some e -> Error e
  | None -> if !magic_seen then Ok !corrupt else Error "empty file"

(* ------------------------------------------------------------------ *)
(* the manifest: a framed-line file naming the parts of one recording *)

type part = { index : int; name : string; entries : int; crc : string }

type manifest = {
  header : Log.t;
  parts : part list;
  order : (int * int) list;
  edges : (string * int * int * int * int) list;
  complete : bool;
}

let manifest_to_string ~magic ~part (header : Log.t) parts ~order ~edges =
  let o = out_create 1024 in
  add_string o magic;
  add_char o '\n';
  add_header ~framed:true o header;
  let line fmt = Printf.ksprintf (framed o add_string) fmt in
  List.iteri
    (fun ix (name, entries, crc) ->
      line "%s %d %s %d %s" part ix name entries crc)
    parts;
  (* 16 runs to a line *)
  let rec orders = function
    | [] -> ()
    | runs ->
      line "order %s"
        (String.concat ","
           (List.filteri (fun i _ -> i < 16) runs
           |> List.map (fun (ix, n) -> Printf.sprintf "%d:%d" ix n)));
      orders (List.filteri (fun i _ -> i >= 16) runs)
  in
  orders order;
  List.iter
    (fun (chan, six, sseq, rix, rseq) ->
      line "edge %S %d %d %d %d" chan six sseq rix rseq)
    edges;
  line "end %d %d %d" (List.length parts)
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 parts)
    (List.length edges);
  out_contents o

(* "ix:n,ix:n,..." *)
let runs_of tok =
  List.map
    (fun run ->
      match String.index_opt run ':' with
      | Some k -> (int_in run 0 k, int_in run (k + 1) (String.length run))
      | None -> raise (Parse ("bad order run " ^ run)))
    (String.split_on_char ',' tok)

(* Every line is CRC'd on its own, so a damaged manifest still yields
   its valid lines; [complete] holds only when none was bad and the
   [end] counts agree with what was read. *)
let manifest_of_string ~magic ~part s =
  let hdr = ref no_header and parts = ref [] and order = ref [] in
  let edges = ref [] and trailer = ref None in
  let push r x =
    r := x :: !r;
    true
  in
  let line body =
    let d = decoder body in
    tokenize d 0 (String.length body);
    let n = d.ntok and kw = tok_is d 0 in
    if n = 5 && kw part then
      push parts
        {
          index = tok_int d 1;
          name = tok_string d 2;
          entries = tok_int d 3;
          crc = tok_string d 4;
        }
    else if n = 2 && kw "order" then begin
      order := List.rev_append (runs_of (tok_string d 1)) !order;
      true
    end
    else if n = 6 && kw "edge" then
      push edges
        (tok_quoted d 1, tok_int d 2, tok_int d 3, tok_int d 4, tok_int d 5)
    else if n = 4 && kw "end" then begin
      trailer := Some (tok_int d 1, tok_int d 2, tok_int d 3);
      true
    end
    else
      match header_tokens d !hdr with
      | Some h ->
        hdr := h;
        true
      | None -> false
  in
  match read_framed ~magic Salvage s line with
  | Error _ -> None
  | Ok corrupt ->
    let parts = List.sort compare !parts and order = List.rev !order in
    let edges = List.rev !edges in
    let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
    let complete =
      corrupt = 0
      &&
      match !trailer with
      | Some (n_parts, n_entries, n_edges) ->
        n_parts = List.length parts
        && n_edges = List.length edges
        && n_entries = sum (fun p -> p.entries) parts
        && (order = [] || n_entries = sum snd order)
      | None -> false
    in
    Some { header = !hdr; parts; order; edges; complete }

(* ------------------------------------------------------------------ *)
(* files *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

(* Store-routed save: the payload goes to a temp file that is fsynced
   and renamed over the target, and every byte flows through the
   pluggable store, so fault injection and retry policies apply. *)
let save_via store path log = Store.atomic_write store path (to_string log)

let save path log =
  match save_via (Store.local ()) path log with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Store.error_to_string e))

let load_report ?mode path =
  Result.bind (read_file path) (of_string_report ?mode)

let load ?mode path = Result.map fst (load_report ?mode path)
