import javax.annotation.concurrent.ThreadSafe;

// 20 ifs in a row make 2^20 paths: over the oracle's path cap
@ThreadSafe
class ManyIfs {
  private int x = 0;

  public synchronized void set(int n) {
    if (n > 0) {
      x = 0;
    }
    if (n > 1) {
      x = 1;
    }
    if (n > 2) {
      x = 2;
    }
    if (n > 3) {
      x = 3;
    }
    if (n > 4) {
      x = 4;
    }
    if (n > 5) {
      x = 5;
    }
    if (n > 6) {
      x = 6;
    }
    if (n > 7) {
      x = 7;
    }
    if (n > 8) {
      x = 8;
    }
    if (n > 9) {
      x = 9;
    }
    if (n > 10) {
      x = 10;
    }
    if (n > 11) {
      x = 11;
    }
    if (n > 12) {
      x = 12;
    }
    if (n > 13) {
      x = 13;
    }
    if (n > 14) {
      x = 14;
    }
    if (n > 15) {
      x = 15;
    }
    if (n > 16) {
      x = 16;
    }
    if (n > 17) {
      x = 17;
    }
    if (n > 18) {
      x = 18;
    }
    if (n > 19) {
      x = 19;
    }
  }
}
