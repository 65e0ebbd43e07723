//! Synthetic SkyServer-like data: the substrate of the §6.3 runtime
//! experiment and of solver semantic checks.
//!
//! The photometric tables are populated with objids drawn from the same base
//! range the workload generator uses, so a fraction of generated stifle
//! queries actually hits rows.

use crate::engine::MiniDb;
use crate::table::{ColumnData, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::{skyserver_catalog, ColumnType};

/// The objid base shared with `sqlog-gen`'s crawler profiles.
pub const OBJID_BASE: u64 = 587_722_982_000_000_000;

/// Builds a SkyServer-like database with `rows` objects per photo table.
pub fn skyserver_db(rows: usize, seed: u64) -> MiniDb {
    let catalog = skyserver_catalog();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = MiniDb::new();

    // Dense objids at the bottom of the generator's random range: with the
    // generator drawing uniformly from 900 M offsets, point queries mostly
    // miss — which matches the "small average number of result rows" Stifle
    // signature (§4.2.1) while keeping some hits.
    let objids: Vec<Option<i64>> = (0..rows)
        .map(|i| Some((OBJID_BASE + i as u64 * 1_000) as i64))
        .collect();

    for name in ["photoprimary", "photoobjall", "galaxy", "star"] {
        let schema = catalog.table(name).expect("catalog table");
        let mut t = Table::new(name);
        for col in &schema.columns {
            let data = match (col.name.as_str(), col.ty) {
                ("objid", _) => ColumnData::Int(objids.clone()),
                ("htmid", _) => ColumnData::Int(
                    (0..rows)
                        .map(|_| Some(rng.random_range(1_000_000_000..2_000_000_000i64)))
                        .collect(),
                ),
                ("run" | "camcol" | "field" | "type" | "flags", _) => ColumnData::Int(
                    (0..rows)
                        .map(|_| Some(rng.random_range(0..5_000i64)))
                        .collect(),
                ),
                ("ra", _) => ColumnData::Float(
                    (0..rows)
                        .map(|_| Some(rng.random_range(0.0..360.0)))
                        .collect(),
                ),
                ("dec", _) => ColumnData::Float(
                    (0..rows)
                        .map(|_| Some(rng.random_range(-90.0..90.0)))
                        .collect(),
                ),
                (_, ColumnType::Float) => ColumnData::Float(
                    (0..rows)
                        .map(|_| Some(rng.random_range(10.0..25.0)))
                        .collect(),
                ),
                (_, ColumnType::BigInt) => ColumnData::Int(
                    (0..rows)
                        .map(|_| Some(rng.random_range(0..1_000_000i64)))
                        .collect(),
                ),
                (_, ColumnType::Text) => {
                    ColumnData::Str((0..rows).map(|i| Some(format!("v{i}"))).collect())
                }
            };
            t.add_column(col.name.clone(), data);
        }
        t.build_pk("objid");
        t.build_range_index("htmid");
        db.add_table(t);
    }

    // Spectra: one per four photo objects.
    let spec_rows = rows / 4;
    for name in ["specobjall", "specobj"] {
        let mut t = Table::new(name);
        t.add_column(
            "specobjid",
            ColumnData::Int(
                (0..spec_rows)
                    .map(|i| Some(75_094_000_000_000_000 + i as i64 * 7))
                    .collect(),
            ),
        );
        t.add_column(
            "bestobjid",
            ColumnData::Int((0..spec_rows).map(|i| objids[i * 4]).collect()),
        );
        t.add_column(
            "plate",
            ColumnData::Int(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(266..3_000i64)))
                    .collect(),
            ),
        );
        t.add_column(
            "fiberid",
            ColumnData::Int(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(1..641i64)))
                    .collect(),
            ),
        );
        t.add_column(
            "mjd",
            ColumnData::Int(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(51_000..54_000i64)))
                    .collect(),
            ),
        );
        t.add_column(
            "ra",
            ColumnData::Float(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(0.0..360.0)))
                    .collect(),
            ),
        );
        t.add_column(
            "dec",
            ColumnData::Float(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(-90.0..90.0)))
                    .collect(),
            ),
        );
        t.add_column(
            "z",
            ColumnData::Float(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(0.0..0.5)))
                    .collect(),
            ),
        );
        t.add_column(
            "zerr",
            ColumnData::Float(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(0.0001..0.02)))
                    .collect(),
            ),
        );
        t.add_column(
            "specclass",
            ColumnData::Int(
                (0..spec_rows)
                    .map(|_| Some(rng.random_range(0..7i64)))
                    .collect(),
            ),
        );
        t.build_pk("specobjid");
        t.build_index("bestobjid");
        db.add_table(t);
    }

    // Schema-browser metadata.
    let meta: &[&str] = &[
        "photoobjall",
        "photoprimary",
        "specobjall",
        "galaxy",
        "star",
        "field",
        "neighbors",
        "platex",
    ];
    let mut t = Table::new("dbobjects");
    t.add_column(
        "name",
        ColumnData::Str(meta.iter().map(|m| Some((*m).to_string())).collect()),
    );
    t.add_column(
        "type",
        ColumnData::Str(meta.iter().map(|_| Some("U".to_string())).collect()),
    );
    t.add_column(
        "access",
        ColumnData::Str(meta.iter().map(|_| Some("public".to_string())).collect()),
    );
    t.add_column(
        "description",
        ColumnData::Str(
            meta.iter()
                .map(|m| Some(format!("description of {m}")))
                .collect(),
        ),
    );
    t.add_column(
        "text",
        ColumnData::Str(meta.iter().map(|m| Some(format!("docs for {m}"))).collect()),
    );
    t.add_column(
        "rank",
        ColumnData::Int((0..meta.len()).map(|i| Some(i as i64)).collect()),
    );
    t.build_index("name");
    db.add_table(t);

    // The paper's running-example tables, small and fully hittable.
    let mut employee = Table::new("employee");
    employee.add_column("empid", ColumnData::Int((1..=50).map(Some).collect()));
    employee.add_column(
        "name",
        ColumnData::Str((1..=50).map(|i| Some(format!("name{i}"))).collect()),
    );
    employee.add_column(
        "address",
        ColumnData::Str((1..=50).map(|i| Some(format!("{i} main st"))).collect()),
    );
    employee.add_column(
        "phone",
        ColumnData::Str((1..=50).map(|i| Some(format!("555-{i:04}"))).collect()),
    );
    employee.build_pk("empid");
    db.add_table(employee);

    let mut orders = Table::new("orders");
    let n_orders = 200usize;
    orders.add_column(
        "orderid",
        ColumnData::Int((0..n_orders as i64).map(Some).collect()),
    );
    orders.add_column(
        "empid",
        ColumnData::Int(
            (0..n_orders)
                .map(|_| Some(rng.random_range(1..=50i64)))
                .collect(),
        ),
    );
    orders.add_column(
        "orders",
        ColumnData::Int(
            (0..n_orders)
                .map(|_| Some(rng.random_range(1..10i64)))
                .collect(),
        ),
    );
    orders.build_pk("orderid");
    orders.build_index("empid");
    db.add_table(orders);

    let mut info = Table::new("employeeinfo");
    info.add_column("empid", ColumnData::Int((1..=50).map(Some).collect()));
    info.add_column(
        "address",
        ColumnData::Str((1..=50).map(|i| Some(format!("{i} main st"))).collect()),
    );
    info.build_index("empid");
    db.add_table(info);

    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_tables_with_indexes() {
        let db = skyserver_db(1_000, 7);
        assert!(db.table_count() >= 9);
        assert_eq!(db.table("photoprimary").unwrap().rows(), 1_000);
        assert_eq!(db.table("specobjall").unwrap().rows(), 250);
        assert!(db
            .table("photoprimary")
            .unwrap()
            .indexes
            .contains_key("objid"));
    }

    #[test]
    fn point_query_hits_a_dense_objid() {
        let db = skyserver_db(100, 7);
        let objid = OBJID_BASE + 5_000; // row 5
        let (p, _) = db
            .execute_sql_planned(&format!(
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid = {objid}"
            ))
            .unwrap();
        assert_eq!(p.result.rows.len(), 1);
        assert_eq!(p.plan.scans()[0].access.variant(), "PkSeek");
        assert_eq!(p.ops.storage_scanned(), 1);
    }

    #[test]
    fn dbobjects_browsing_works() {
        let db = skyserver_db(100, 7);
        let (r, _) = db
            .execute_sql("SELECT description FROM DBObjects WHERE name = 'galaxy'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = skyserver_db(200, 9);
        let b = skyserver_db(200, 9);
        let (ra, _) = a
            .execute_sql("SELECT count(*) FROM photoprimary WHERE type = 3")
            .unwrap();
        let (rb, _) = b
            .execute_sql("SELECT count(*) FROM photoprimary WHERE type = 3")
            .unwrap();
        assert_eq!(ra.rows, rb.rows);
    }
}
