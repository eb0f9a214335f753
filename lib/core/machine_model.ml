type machine = {
  machine_name : string;
  mhz : float;
  load_cycles : float;
  store_cycles : float;
  alu_cycles : float;
  loop_cycles : float;
}

(* Calibration: each machine's (load, store, alu, loop) is solved from the
   paper's three R2000 data points (copy 130, checksum 115, fused 90 Mb/s)
   and the two µVAX points (copy 42, checksum 60 Mb/s) plus period
   microarchitecture (R2000 load-delay slots; CVAX microcoded ALU and
   write-through stores). Everything else the model emits is prediction,
   not calibration. *)

let uvax3 =
  {
    machine_name = "uVax III";
    mhz = 11.1;
    load_cycles = 2.3;
    store_cycles = 5.337;
    alu_cycles = 1.4;
    loop_cycles = 0.82;
  }

let r2000 =
  {
    machine_name = "R2000";
    mhz = 16.7;
    load_cycles = 2.0;
    store_cycles = 1.293;
    alu_cycles = 0.915;
    loop_cycles = 0.817;
  }

type kernel = { kernel_name : string; loads : float; stores : float; alu : float }

let copy_kernel = { kernel_name = "copy"; loads = 1.0; stores = 1.0; alu = 0.0 }

let checksum_kernel =
  { kernel_name = "checksum"; loads = 1.0; stores = 0.0; alu = 2.0 }

(* SEQUENCE OF INTEGER: per 32-bit element, one word load, ~4.5 byte
   stores (tag, length, 1-4 value octets, amortised), and the
   minimal-length tests, shifts and masks of TLV production. The ALU count
   is set so the R2000 prediction matches the paper's hand-coded 28 Mb/s;
   the µVAX and fused predictions then follow. *)
let ber_encode_int_kernel =
  { kernel_name = "ber-encode-int"; loads = 1.0; stores = 4.5; alu = 11.4 }

let fuse kernels =
  match kernels with
  | [] -> invalid_arg "Machine_model.fuse: empty"
  | k0 :: rest ->
      List.fold_left
        (fun acc k ->
          {
            kernel_name = acc.kernel_name ^ "+" ^ k.kernel_name;
            loads = Float.max acc.loads k.loads;
            stores = Float.max acc.stores k.stores;
            alu = acc.alu +. k.alu;
          })
        k0 rest

let cycles_per_word m k =
  (m.load_cycles *. k.loads)
  +. (m.store_cycles *. k.stores)
  +. (m.alu_cycles *. k.alu)
  +. m.loop_cycles

let mbps m k = m.mhz *. 32.0 /. cycles_per_word m k

let serial_mbps m ks =
  match ks with
  | [] -> invalid_arg "Machine_model.serial_mbps: empty"
  | _ ->
      let inv = List.fold_left (fun acc k -> acc +. (1.0 /. mbps m k)) 0.0 ks in
      1.0 /. inv
