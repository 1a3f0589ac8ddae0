//! Figure 12: hardware area on a 65 nm process for EVA² compared to the
//! deep-learning ASICs it attaches to (Eyeriss for conv, EIE for FC).

use eva2_experiments::report::{qty, Table};
use eva2_hw::area;

fn main() {
    let report = area::fig12_report();
    println!("Figure 12: 65 nm area comparison");
    println!();
    let mut t = Table::new(["unit", "area (mm^2)", "share of VPU (%)"]);
    for e in &report.entries {
        let pct = 100.0 * e.mm2 / report.total_mm2();
        t.row([e.name.clone(), qty(e.mm2), format!("{pct:.1}")]);
    }
    t.row([
        "total VPU".to_string(),
        qty(report.total_mm2()),
        "100.0".to_string(),
    ]);
    println!("{}", t.render());

    let b = area::eva2_breakdown();
    println!("EVA2 internal breakdown (paper: pixel buffers 54.5%, activation buffer 16.0%):");
    let mut t2 = Table::new(["component", "area (mm^2)", "share of EVA2 (%)"]);
    for (name, mm2) in [
        ("pixel buffers (eDRAM)", b.pixel_buffers_mm2),
        ("key activation buffer", b.activation_buffer_mm2),
        ("RFBME + warp engine logic", b.logic_mm2),
    ] {
        t2.row([
            name.to_string(),
            qty(mm2),
            format!("{:.1}", 100.0 * mm2 / area::EVA2_MM2),
        ]);
    }
    println!("{}", t2.render());
    println!(
        "Paper: EVA2 is 3.5% of the three-unit VPU; measured: {:.1}%",
        report.percent_of_total("EVA2").unwrap_or(0.0)
    );
}
